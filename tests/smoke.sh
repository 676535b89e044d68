#!/usr/bin/env bash
# Smoke test of the trigvee console script: every command once, with the exit
# codes and output checks a user would rely on.  Run it from a scratch
# directory (it writes small files there), with INPUTS set to the
# perfbench/inputs directory of the checkout:
#   INPUTS=/path/to/checkout/perfbench/inputs bash tests/smoke.sh
# `trigvee` and `python` are whatever the PATH finds.
set -e
: "${INPUTS:?set INPUTS to the perfbench/inputs directory}"

trigvee check "$INPUTS/F4.json" --json
# a configuration with nonzero residuals fails its check: exit 1
code=0; trigvee check "$INPUTS/D8_broken.json" --json > /dev/null || code=$?; test "$code" = 1
# the check report's own writer gives the bytes of json.dumps(indent=2, sort_keys=True)
for f in E8:0 BC8:0 D8_broken:1; do
  code=0; trigvee check "$INPUTS/${f%:*}.json" --json > report.json || code=$?; test "$code" = "${f#*:}"
  python -c "import json, sys; t = open('report.json').read(); sys.exit(t != json.dumps(json.loads(t), indent=2, sort_keys=True) + '\n')"
done
# parameters at which every multiplicity vanishes: exit 2
code=0; trigvee gen --family E8 --param t=0 || code=$?; test "$code" = 2
trigvee wdvv "$INPUTS/F4.json" --samples 5
trigvee catalog --family G2 --max-corank 1
# the commands that read the duals and eliminate integer rows
trigvee gamma --family F4 --p 1 --q 2 --json
trigvee subsystem "$INPUTS/E8.json" --span 0,1,2 --json
trigvee restrict "$INPUTS/F4.json" --kernel-of 0
# a covector whose multiplicities cancel is dropped with one warning line, no source location
trigvee gen --family BC --rank 3 --param r=1 --param s=-1 --param q=2 -o bc3.json
trigvee restrict bc3.json --kernel-of 7 > /dev/null 2> warn.txt
test "$(wc -l < warn.txt)" = 1
grep -q '^warning:' warn.txt
if grep -q '\.py:' warn.txt; then cat warn.txt; exit 1; fi
# a merge that cancels onto a degenerate restricted Gram form: exit 2 with one
# error line, and the refusal comes before any warning about the merge
echo '{"dim": 2, "covectors": [[1, 0], [0, 1], [1, 1]], "multiplicities": [1, 1, -1]}' > degenerate.json
code=0; trigvee restrict degenerate.json --kernel-of 0 > /dev/null 2> err.txt || code=$?; test "$code" = 2
test "$(wc -l < err.txt)" = 1
grep -q '^error: restricted Gram form' err.txt
if grep -q '^warning:' err.txt; then cat err.txt; exit 1; fi
# a singular Gram form: exit 2, and the error names it
echo '{"dim": 2, "covectors": [[1, 0], [0, 1], [0, -1]], "multiplicities": [1, 1, -1]}' > singular.json
code=0; trigvee check singular.json 2> err.txt || code=$?; test "$code" = 2
grep -q 'Gram form' err.txt
# importing the CLI loads no numpy, no dataclasses and no layer a command loads itself
python -c "import trigvee.cli, sys; sys.exit(any(m in sys.modules for m in ['numpy', 'dataclasses', 'trigvee.families', 'trigvee.gamma', 'trigvee.veesystem']))"
# catalog and restrict run in process: each must finish without loading numpy or dataclasses
python -c "import sys; from trigvee.cli import main; sys.exit(main(['catalog', '--family', 'G2', '--max-corank', '1']) or any(m in sys.modules for m in ['numpy', 'dataclasses']))"
python -c "import sys; from trigvee.cli import main; sys.exit(main(['restrict', sys.argv[1], '--kernel-of', '0']) or any(m in sys.modules for m in ['numpy', 'dataclasses']))" "$INPUTS/F4.json"
# wdvv runs in process: it loads numpy, but not numpy.random with its secrets and OpenSSL's _hashlib
python -c "import sys; from trigvee.cli import main; sys.exit(main(['wdvv', sys.argv[1], '--samples', '5']) or any(m in sys.modules for m in ['numpy.random', 'secrets', '_hashlib', 'dataclasses']))" "$INPUTS/F4.json"
