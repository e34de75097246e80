import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "benchmark_methods.py"


def _benchmark_methods():
    spec = importlib.util.spec_from_file_location("benchmark_methods", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkMethods:
    @pytest.mark.parametrize("flag,value", [("--scenes", "0"), ("--scenes", "-2"),
                                            ("--threads", "0"), ("--threads", "-5")])
    def test_rejects_counts_below_one(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            _benchmark_methods().main([flag, value, "--size", "16"])
        assert exc.value.code == 2
        err = capsys.readouterr()
        assert err.err.splitlines()[-1].endswith(f"error: {flag} must be >= 1, got {value}")
        assert err.out == ""

    def test_threads_default_to_the_usable_cores(self, capsys):
        from cdconf.pool import default_threads

        module = _benchmark_methods()
        seen = []
        real = module.run_method

        def recorded(*a, threads, **kw):
            seen.append(threads)
            return real(*a, threads=threads, **kw)

        module.run_method = recorded
        assert module.main(["--scenes", "1", "--size", "16", "-k", "2"]) == 0
        assert seen and set(seen) == {default_threads()}
