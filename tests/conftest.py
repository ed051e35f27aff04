import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

SANITIZE = "-fsanitize=undefined -fno-sanitize-recover=all"


@pytest.fixture(scope="session")
def compiled_scan(tmp_path_factory):
    """The compiled kernel, built from ``_scan.c`` by ``setup.py build_ext``
    (the recipe that ships) with warnings as errors and the undefined-behaviour
    sanitizer aborting on its first report, into a temporary directory."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(cc.split()[0]) is None:
        pytest.skip(f"no C compiler ({cc}) on PATH")
    out = tmp_path_factory.mktemp("kernel")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext"]
        + ["--build-lib", str(out), "--build-temp", str(out / "tmp")],
        cwd=Path(__file__).resolve().parents[1],
        env={**os.environ, "CFLAGS": f"-Wall -Wextra -Werror {SANITIZE}", "LDFLAGS": SANITIZE},
        capture_output=True,
        text=True,
        timeout=300,
    )
    # the extension is optional, so a failed compile still exits 0
    target = out / "cutfair" / "oracle" / ("_scan" + sysconfig.get_config_var("EXT_SUFFIX"))
    assert proc.returncode == 0 and target.exists(), proc.stdout + proc.stderr
    spec = importlib.util.spec_from_file_location("cutfair.oracle._scan", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scan
