"""The benchmark's span tracer names asailab functions by module and
attribute; a rename in the package must fail here, not at trace time."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import asailab  # noqa: F401  -- the tracer finds the modules in sys.modules

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    if not SPANS.exists():
        pytest.skip("perfbench/spans.py not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(spans):
    assert spans.TARGETS
    for modname, attr, span in spans.TARGETS:
        mod = importlib.import_module(f"asailab.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name, None)
            assert isinstance(owner, type), f"{modname}.{cls_name} ({span})"
            assert meth in vars(owner), f"{modname}.{attr} ({span})"
        else:
            assert callable(getattr(mod, attr, None)), f"{modname}.{attr} ({span})"


def test_tracer_installs_and_restores(spans):
    # restore() raises if any wrapper is left behind
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()


def test_bench_record_names_a_failed_run(capsys):
    # a perfbench run that fails stops the record with its stderr, workload,
    # side and seed, where check_returncode() gave the exit status alone
    if not SPANS.exists():
        pytest.skip("perfbench/ not in this checkout")
    from bench_record import CHANGE, perfbench
    with pytest.raises(SystemExit) as exc:
        perfbench({"change": CHANGE}, "change", "no-such-workload", 7001, 1, 0)
    message = str(exc.value.code)
    assert "workload no-such-workload, side change, seed 7001" in message
    assert "unknown workload 'no-such-workload'" in message
