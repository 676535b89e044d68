"""Stabiliser chains of permutation groups on the points 0 .. n-1 (Seress,
Permutation Group Algorithms, 2003, ch. 4-5): Schreier-Sims, base change and
a count of base images.  Permutations are tuples of point images; mul(p, q)
applies q, then p."""

import random


def mul(p: tuple, q: tuple) -> tuple:
    return tuple(map(p.__getitem__, q))


def inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


class Chain:
    """A stabiliser chain (Seress 4.1): base points b_0, b_1, ..., and for
    each level i the strong generators fixing b_0 .. b_{i-1}, as (g, g^-1)
    pairs, and the inverse transversal of b_i's basic orbit under them,
    {y: u^-1} with u(b_i) = y."""

    def __init__(self, base, n: int):
        self.ident = tuple(range(n))
        self.base, self.gens, self.trans = [], [], []
        for b in base:
            self.add_level(b)

    def add_level(self, b: int) -> None:
        self.base.append(b)
        self.gens.append([])
        self.trans.append({b: self.ident})

    def order(self, start: int = 0) -> int:
        """The product of the basic orbit lengths from level start on."""
        out = 1
        for t in self.trans[start:]:
            out *= len(t)
        return out

    def sift(self, g: tuple, start: int = 0) -> tuple[tuple, int]:
        """Strip g level by level from start; returns what is left and the
        level where it left the basic orbit (the number of levels if none)."""
        for i in range(start, len(self.base)):
            y = g[self.base[i]]
            if y != self.base[i]:
                ui = self.trans[i].get(y)
                if ui is None:
                    return g, i
                g = mul(ui, g)
        return g, len(self.base)

    def add_generator(self, h: tuple, levels) -> None:
        """Add h to the strong generators of the given levels, each of whose
        base points before it h fixes, and grow their basic orbits."""
        if h != self.ident and all(h[b] == b for b in self.base):
            self.add_level(next(p for p, x in enumerate(h) if x != p))
            levels = [*levels, len(self.base) - 1]
        pair = (h, inverse(h))
        for i in levels:
            gens, trans = self.gens[i], self.trans[i]
            gens.append(pair)
            todo, old = list(trans), len(trans)
            for k, y in enumerate(todo):
                ui = trans[y]
                # the old orbit is closed under the old generators
                for s, si in (gens if k >= old else (pair,)):
                    z = s[y]
                    if z not in trans:
                        trans[z] = mul(ui, si)  # u_z = s u_y
                        todo.append(z)


def schreier_sims(gens, n: int, base=()) -> Chain:
    """The deterministic Schreier-Sims algorithm (Seress 4.2): a complete
    chain of the group generated by gens, its base starting with ``base``.

    Level by level from the bottom, every Schreier generator
    u_{s(y)}^-1 s u_y of a level is sifted through the levels below it; one
    that does not reduce to the identity joins those levels' generators, and
    the check resumes at the deepest level it joined."""
    chain = Chain(base, n)
    for g in gens:
        if g != chain.ident:
            j = next((i for i, b in enumerate(chain.base) if g[b] != b), len(chain.base) - 1)
            chain.add_generator(g, range(j + 1))
    i = len(chain.base) - 1
    while i >= 0:
        residue = schreier_residue(chain, i)
        if residue is None:
            i -= 1
            continue
        h, j = residue
        chain.add_generator(h, range(i + 1, min(j + 1, len(chain.base))))
        i = min(j, len(chain.base) - 1)
    return chain


def schreier_residue(chain: Chain, i: int):
    """A Schreier generator of level i that does not sift to the identity
    through the levels below it, as (residue, level it stopped at), or None."""
    trans = chain.trans[i]
    for y, ui in trans.items():
        u = inverse(ui)
        for s, _ in chain.gens[i]:
            h, j = chain.sift(mul(trans[s[y]], mul(s, u)), i + 1)
            if h != chain.ident:
                return h, j
    return None


def rebase(chain: Chain, base) -> Chain:
    """A complete chain of chain's group whose base starts with ``base``:
    a random Schreier-Sims (Seress 4.3) on uniformly random elements, one
    transversal element per level of chain, until the product of the basic
    orbit lengths reaches the group's order, which certifies it."""
    order, new = chain.order(), Chain(base, len(chain.ident))
    inverses = [list(t.values()) for t in chain.trans]
    rng = random.Random(0)  # the order certifies the chain, so the draws never reach an output
    while new.order() < order:
        g = chain.ident
        for level in inverses:
            g = mul(rng.choice(level), g)
        h, j = new.sift(g)
        if h != new.ident:
            new.add_generator(h, range(min(j + 1, len(new.base))))
    return new


def images(chain: Chain, k: int, target, first: bool = False) -> int:
    """The number of tuples (g(b_0), ..., g(b_{k-1})) over g in the chain's
    group with every entry in target; with first, 1 at the first such tuple.

    Depth-first over the first k levels: below a prefix p of transversal
    elements, the candidates at level i are p^-1(target) meet the basic
    orbit, so only the preimages of the target are carried down.  The last
    level is counted without descending."""
    trans = chain.trans

    def walk(i: int, pre: list[int]) -> int:
        orbit = trans[i]
        if i == k - 1:
            return (any if first else sum)(y in orbit for y in pre)
        total = 0
        for y in pre:
            ui = orbit.get(y)
            if ui is not None:
                total += walk(i + 1, [ui[x] for x in pre])
                if first and total:
                    return 1
        return total

    return walk(0, list(target))
