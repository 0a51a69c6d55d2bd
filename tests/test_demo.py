import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_demo.py"


def load_demo():
    spec = importlib.util.spec_from_file_location("run_demo", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def artifacts(root):
    """Bytes of every train and diagnose artifact; manifests carry wall-clock times."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for stage in ("train", "diagnose")
        for path in sorted((root / stage).iterdir())
        if path.name != "manifest.json"
    }


def test_demo_runs_and_reruns_byte_identical(tmp_path, capsys):
    demo = load_demo()
    assert demo.run(tmp_path / "a") == 0
    assert demo.run(tmp_path / "b") == 0
    capsys.readouterr()
    first = artifacts(tmp_path / "a")
    assert "diagnose/weight_drift.csv" in first and "train/report.json" in first
    assert first == artifacts(tmp_path / "b")
