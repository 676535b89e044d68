import os
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_smoke_script(tmp_path):
    # tests/smoke.sh is the workflow's smoke step; here `trigvee` and `python`
    # run this interpreter on the source tree instead of an installed package
    bindir = tmp_path / "bin"
    bindir.mkdir()
    for name, argv in [("trigvee", '"%s" -m trigvee.cli' % sys.executable), ("python", '"%s"' % sys.executable)]:
        (bindir / name).write_text('#!/bin/sh\nexec %s "$@"\n' % argv)
        (bindir / name).chmod(0o755)
    src = os.path.join(_ROOT, "src")
    env = dict(
        os.environ,
        PATH=os.pathsep.join([str(bindir), os.environ.get("PATH", "")]),
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        INPUTS=os.path.join(_ROOT, "perfbench", "inputs"),
    )
    proc = subprocess.run(["bash", os.path.join(_ROOT, "tests", "smoke.sh")], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
