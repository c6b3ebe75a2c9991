"""The benchmark's tracer still finds every function it wraps by name."""

import contextlib
import io
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from check import judge  # noqa: E402
from run import load_package  # noqa: E402
from tracing import TRACED, TRACED_METHODS, Tracer  # noqa: E402
from workloads import WORKLOADS, stream  # noqa: E402


def test_traced_names_exist():
    modules = load_package()
    for layer, funcs in TRACED.items():
        for func in funcs:
            assert callable(getattr(modules[f"shiftfree.{layer}"], func, None)), (layer, func)
    subset_cls = modules["shiftfree.groups"].GroupSubset
    for meth in TRACED_METHODS + ["translate"]:
        assert meth in subset_cls.__dict__, meth
    groups = modules["shiftfree.groups"]
    assert callable(groups.stabilizer.cache_clear)
    assert callable(groups.quotient_view.cache_clear)


def test_one_op_of_each_kind_runs_traced():
    # The first op of every (command, method) among each workload's first six:
    # table, construct thm1/thm2, exact and bounds.
    modules = load_package()
    cli = modules["shiftfree.cli"]
    for workload in sorted(WORKLOADS):
        ops = stream(workload, 1)
        kinds = {}
        for _ in range(6):
            op = next(ops)
            kinds.setdefault((op.command, op.method), op)
        for (_, method), op in kinds.items():
            tracer = Tracer()
            tracer.install(modules)
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(op.argv)
            finally:
                tracer.uninstall()
            assert judge(op, rc, out.getvalue())[0] == "ok", (workload, op.argv)
            spans = tracer.totals()
            assert "cli.main" in spans
            if method:
                assert f"construct.construct_{method}" in spans, (workload, method)
            if method == "thm2":
                # thm2 is search_avoider at its size: the search, greedy
                # included, is a span of its own under construct_thm2.
                named = [tracer.names[i] for i in tracer.span_name]
                assert any(
                    name == "construct.search_avoider"
                    and named[tracer.span_parent[i]] == "construct.construct_thm2"
                    for i, name in enumerate(named)
                ), workload
    # uninstall put every original back.
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(modules["shiftfree.groups"].GroupSubset.translate, "__wrapped__")
