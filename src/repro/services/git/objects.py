"""Git object model: content-addressed commits forming a hash chain.

Git's own integrity story (§6.1): each commit id is a hash over the
committed tree, the message and the parent commit id. That chain protects
*content history* but not *refs* — which is precisely the gap the teleport
/ rollback / reference-deletion attacks exploit and LibSEAL closes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import sha256_hex
from repro.errors import ServiceError


@dataclass(frozen=True)
class Commit:
    """One commit: a snapshot of files plus lineage."""

    commit_id: str
    parent_id: str | None
    message: str
    author: str
    files: tuple[tuple[str, str], ...]  # (path, content-hash), sorted

    @staticmethod
    def compute_id(
        parent_id: str | None,
        message: str,
        author: str,
        files: tuple[tuple[str, str], ...],
    ) -> str:
        tree = "\n".join(f"{path} {digest}" for path, digest in files)
        payload = (
            f"parent {parent_id or 'none'}\n"
            f"author {author}\n"
            f"message {message}\n"
            f"tree\n{tree}\n"
        )
        return sha256_hex(payload.encode())[:40]


class ObjectStore:
    """Content-addressed storage of commits.

    A commit names its files by blob digest; nothing serves file
    contents back, so only the digests are kept.
    """

    def __init__(self) -> None:
        self._commits: dict[str, Commit] = {}

    @staticmethod
    def blob_id(content: bytes) -> str:
        return sha256_hex(b"blob\x00" + content)[:40]

    def create_commit(
        self,
        parent_id: str | None,
        message: str,
        author: str,
        files: dict[str, bytes],
    ) -> Commit:
        """Store a new commit over the files' blob digests; returns it."""
        if parent_id is not None and parent_id not in self._commits:
            raise ServiceError(f"unknown parent commit {parent_id}")
        file_entries = tuple(
            sorted((path, self.blob_id(content)) for path, content in files.items())
        )
        commit_id = Commit.compute_id(parent_id, message, author, file_entries)
        commit = Commit(commit_id, parent_id, message, author, file_entries)
        self._commits[commit_id] = commit
        return commit

    def get_commit(self, commit_id: str) -> Commit:
        commit = self._commits.get(commit_id)
        if commit is None:
            raise ServiceError(f"unknown commit {commit_id}")
        return commit

    def has_commit(self, commit_id: str) -> bool:
        return commit_id in self._commits

    def ancestry(self, commit_id: str) -> list[str]:
        """Commit ids from ``commit_id`` back to the root."""
        chain = []
        cursor: str | None = commit_id
        while cursor is not None:
            chain.append(cursor)
            cursor = self.get_commit(cursor).parent_id
        return chain

    def verify_chain(self, commit_id: str) -> bool:
        """Recompute every id on the ancestry: Git's own integrity check."""
        for cid in self.ancestry(commit_id):
            commit = self.get_commit(cid)
            recomputed = Commit.compute_id(
                commit.parent_id, commit.message, commit.author, commit.files
            )
            if recomputed != cid:
                return False
        return True
