"""Provenance blocks: who produced a result file, where, and from what.

Run manifests, trace and metrics files, and perfbench results all
embed the same block so any recorded number can be traced back to a
commit, a host, and a moment in time.  Everything degrades gracefully:
outside a git checkout the git fields read ``"unknown"`` rather than
raising, because provenance must never break the run it describes.

Git is asked only when the directory holding ``src/`` has a ``.git``
(a directory, or a file in a worktree or submodule), so an installed
copy reads ``"unknown"`` even inside an unrelated repository.  Both
git fields take dirtiness from one ``git describe --dirty`` query:
modified tracked files make a tree dirty, untracked files do not.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Optional

#: Repository root the git queries run in: the package's checkout,
#: when it has a ``.git``.
_REPO_ROOT = Path(__file__).resolve().parents[3]


def _git(*args: str) -> Optional[str]:
    """One git query against the package checkout, or None."""
    try:
        out = subprocess.run(
            ("git", *args),
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    text = out.stdout.strip()
    return text or None


def git_revision() -> Dict[str, str]:
    """The checkout's commit hash and ``git describe`` string.

    ``commit`` is the full SHA with a ``-dirty`` suffix when a tracked
    file has uncommitted changes; ``describe`` falls back to the short
    SHA, with no dirtiness known, when ``git describe`` fails.  Both
    read ``"unknown"`` outside a git checkout.
    """
    commit = _git("rev-parse", "HEAD") if (_REPO_ROOT / ".git").exists() else None
    if commit is None:
        return {"commit": "unknown", "describe": "unknown"}
    describe = _git("describe", "--always", "--dirty")
    if describe is None:
        return {"commit": commit, "describe": commit[:12]}
    if describe.endswith("-dirty"):
        commit += "-dirty"
    return {"commit": commit, "describe": describe}


def utc_timestamp() -> str:
    """Now, as an ISO-8601 UTC timestamp (``...Z``, second precision)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def provenance_block() -> Dict[str, Any]:
    """The shared provenance block.

    Keys: ``git_commit``, ``git_describe``, ``timestamp_utc``,
    ``python``, ``implementation``, ``platform``, ``host_cpus``.
    """
    git = git_revision()
    return {
        "git_commit": git["commit"],
        "git_describe": git["describe"],
        "timestamp_utc": utc_timestamp(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "host_cpus": os.cpu_count(),
    }
