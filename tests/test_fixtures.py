"""scripts/make_fixtures.py rebuilds fixtures/ byte for byte, and nothing more."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"


def tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_make_fixtures_rebuilds_the_fixture_tree(tmp_path, monkeypatch, fixtures_dir):
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "FIXTURES", tmp_path)
    script.main()
    built, kept = tree(tmp_path), tree(fixtures_dir)
    assert sorted(built) == sorted(kept)
    assert built == kept
