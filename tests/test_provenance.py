"""The provenance block's git fields and timestamp.

The git fields describe the package's own checkout or read
``"unknown"``, and agree on whether its tree is dirty.  Each git test
copies ``provenance.py`` into a layout under a temporary git repository
and loads it from there, so the copy's checkout is that layout's.
"""

import calendar
import importlib.util
import re
import shutil
import subprocess
import time

import pytest

from repro.obs import provenance

needs_git = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def _git(cwd, *args):
    """Run one git command in ``cwd``; its stdout, stripped."""
    identity = ("-c", "user.name=repro", "-c", "user.email=repro@example.invalid")
    return subprocess.run(
        ("git", *identity, "-c", "commit.gpgsign=false", *args),
        cwd=cwd,
        check=True,
        capture_output=True,
        text=True,
    ).stdout.strip()


def _load(path):
    """The provenance module loaded from ``path``."""
    spec = importlib.util.spec_from_file_location("provenance_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _install(site):
    """Copy ``provenance.py`` to ``site/repro/obs/``; load the copy."""
    path = site / "repro" / "obs" / "provenance.py"
    path.parent.mkdir(parents=True)
    shutil.copy(provenance.__file__, path)
    return _load(path)


def _repo(root):
    """A git repository at ``root`` with one commit; its HEAD."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "README").write_text("committed\n")
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "one")
    return _git(root, "rev-parse", "HEAD")


def _checkout(root):
    """A checkout of the package: ``provenance.py`` under ``root/src``,
    committed.  Its HEAD and the module loaded from it."""
    module = _install(root / "src")
    return _repo(root), module


@needs_git
def test_an_installed_copy_inside_another_repository_reads_unknown(tmp_path):
    """git searches upward from the directory it is run in, so asking it
    about a site-packages copy would describe whatever repository
    encloses the virtual environment."""
    proj = tmp_path / "proj"
    _repo(proj)
    (proj / "README").write_text("modified\n")
    copy = _install(proj / ".venv" / "lib" / "python3.11" / "site-packages")
    assert copy.git_revision() == {"commit": "unknown", "describe": "unknown"}


@needs_git
def test_an_untracked_file_leaves_both_fields_clean(tmp_path):
    head, copy = _checkout(tmp_path)
    (tmp_path / "notes.txt").write_text("untracked\n")
    revision = copy.git_revision()
    assert revision["commit"] == head
    assert head.startswith(revision["describe"])


@needs_git
def test_a_modified_tracked_file_makes_both_fields_dirty(tmp_path):
    head, copy = _checkout(tmp_path)
    (tmp_path / "README").write_text("modified\n")
    revision = copy.git_revision()
    assert revision["commit"] == head + "-dirty"
    describe = revision["describe"]
    assert describe.endswith("-dirty") and head.startswith(describe[: -len("-dirty")])


@needs_git
def test_a_worktree_whose_git_is_a_file_is_a_checkout(tmp_path):
    head, _ = _checkout(tmp_path / "main")
    _git(tmp_path / "main", "worktree", "add", "-q", "--detach", str(tmp_path / "wt"))
    assert (tmp_path / "wt" / ".git").is_file()
    copy = _load(tmp_path / "wt" / "src" / "repro" / "obs" / "provenance.py")
    assert copy.git_revision()["commit"] == head


def test_a_failed_describe_falls_back_to_the_short_sha(tmp_path, monkeypatch):
    (tmp_path / ".git").mkdir()
    monkeypatch.setattr(provenance, "_REPO_ROOT", tmp_path)
    sha = "0123456789abcdef" * 2 + "01234567"
    monkeypatch.setattr(
        provenance, "_git", lambda *args: sha if args[0] == "rev-parse" else None
    )
    assert provenance.git_revision() == {"commit": sha, "describe": sha[:12]}


def test_the_timestamp_is_utc_now_to_the_second():
    stamp = provenance.utc_timestamp()
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", stamp)
    seconds = calendar.timegm(time.strptime(stamp, "%Y-%m-%dT%H:%M:%SZ"))
    assert abs(seconds - time.time()) < 2
