"""The checked-in synthetic fixture is what its generator script writes."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SYNTHETIC = ROOT / "tests" / "data" / "synthetic"


def test_generator_reproduces_the_fixture_byte_for_byte(tmp_path, capsys):
    path = ROOT / "scripts" / "make_synthetic_data.py"
    spec = importlib.util.spec_from_file_location("make_synthetic_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.build_fixture(tmp_path)
    capsys.readouterr()
    names = ("roster.csv", "records_scopus.csv", "records_wos.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_bytes() == (SYNTHETIC / name).read_bytes(), name
