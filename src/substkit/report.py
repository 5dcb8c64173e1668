"""Structured check records shared by the law suites and the CLI."""

from __future__ import annotations

import json


class CheckRecord:
    __slots__ = ("suite", "name", "status", "witness")

    def __init__(self, suite: str, name: str, status: str, witness: str | None):
        _set_suite(self, suite)
        _set_name(self, name)
        _set_status(self, status)  # "pass" | "fail"
        _set_witness(self, witness)

    def __setattr__(self, *a):
        raise AttributeError("CheckRecord is immutable")

    def __reduce__(self):
        return CheckRecord, self._key()

    def _key(self):
        return (self.suite, self.name, self.status, self.witness)

    def __eq__(self, other):
        if type(other) is not CheckRecord:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"CheckRecord(suite={self.suite!r}, name={self.name!r}, "
                f"status={self.status!r}, witness={self.witness!r})")

    @property
    def ok(self) -> bool:
        return self.status == "pass"


_set_suite = CheckRecord.suite.__set__
_set_name = CheckRecord.name.__set__
_set_status = CheckRecord.status.__set__
_set_witness = CheckRecord.witness.__set__


class Report:
    # no slots: a caller may keep what it measured on the report it filled

    def __init__(self):
        self.records: list[CheckRecord] = []

    def record(self, suite: str, name: str, ok: bool, witness: str | None = None):
        self.records.append(CheckRecord(suite, name, "pass" if ok else "fail",
                                        None if ok else witness))

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.ok]

    def first_failure(self) -> CheckRecord | None:
        return self.failures[0] if self.failures else None

    def to_json_lines(self) -> str:
        return "\n".join(json.dumps({"suite": r.suite, "name": r.name,
                                     "status": r.status, "witness": r.witness},
                                    sort_keys=True)
                         for r in self.records)

    def to_text(self) -> str:
        lines = []
        for r in self.records:
            mark = "PASS" if r.ok else "FAIL"
            line = f"[{mark}] {r.suite}: {r.name}"
            if r.witness:
                line += f"  -- witness: {r.witness}"
            lines.append(line)
        lines.append(f"{'OK' if self.ok else 'FAILED'} "
                     f"({len(self.records)} checks, {len(self.failures)} failures)")
        return "\n".join(lines)
