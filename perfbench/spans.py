"""In-memory span tracer for the benchmark.

Spans are recorded around critwave's public names, from outside the
package: each name is replaced, for the duration of ``Tracer.installed()``,
in every namespace that looks it up (module globals, class attributes,
properties). A span has a name, a start, an end and a parent; spans are
kept in flat arrays and written out when the run ends. Per-name calls,
inclusive seconds, self seconds (inclusive minus the time covered by direct
children) and an optional work count are accumulated as spans close.
"""

from __future__ import annotations

import contextlib
import json
from array import array
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.work: list[int] = []
        self._open = [-1]  # stack of open span ids; -1 is the root
        self._child = [0.0]  # time covered by closed children, per open span
        self._wrappers: dict[int, object] = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
            self.work.append(0)
        return nid

    def wrap(self, name: str, fn, work=None):
        """Return fn wrapped in a span; work(args) adds to the name's work count."""
        nid = self._id(name)
        s_name, s_parent, s_start, s_end = (
            self.span_name, self.span_parent, self.span_start, self.span_end)
        open_, child = self._open, self._child
        calls, total_s, self_s, work_c = self.calls, self.total_s, self.self_s, self.work

        def traced(*args, **kwargs):
            sid = len(s_start)
            s_name.append(nid)
            s_parent.append(open_[-1])
            s_end.append(0.0)
            open_.append(sid)
            child.append(0.0)
            t0 = perf_counter()
            s_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                s_end[sid] = t1
                open_.pop()
                covered = child.pop()
                dur = t1 - t0
                calls[nid] += 1
                total_s[nid] += dur
                self_s[nid] += dur - covered
                child[-1] += dur
                if work is not None:
                    work_c[nid] += work(args)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def installed(self, points):
        """Patch every trace point while the block runs; restore on exit.

        points: (span name, owner, attribute, other owners, work). The
        attribute is looked up on owner; each other owner that binds the
        same object gets the same wrapper. A point whose attribute is
        missing is skipped and reported by ``missing(points)``.
        """
        undo = []
        try:
            for name, owner, attr, others, work in points:
                orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if orig is None:
                    continue
                key = id(orig)
                if key not in self._wrappers:
                    if isinstance(orig, property):
                        self._wrappers[key] = property(self.wrap(name, orig.fget, work))
                    else:
                        self._wrappers[key] = self.wrap(name, orig, work)
                new = self._wrappers[key]
                for target in (owner, *others):
                    if target is owner or getattr(target, attr, None) is orig:
                        undo.append((target, attr, orig))
                        setattr(target, attr, new)
            yield self
        finally:
            for target, attr, orig in reversed(undo):
                setattr(target, attr, orig)

    @staticmethod
    def missing(points) -> list[str]:
        out = []
        for name, owner, attr, _others, _work in points:
            present = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
            if not present:
                out.append(name)
        return out

    def stats(self, name: str) -> tuple[int, float, float, int]:
        """(calls, inclusive s, self s, work) accumulated for a span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0, 0
        return self.calls[nid], self.total_s[nid], self.self_s[nid], self.work[nid]

    def module_self_s(self) -> dict[str, float]:
        """Self seconds summed over span names per module prefix."""
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            mod = name.split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + self.self_s[nid]
        return out

    def write(self, path: Path) -> None:
        """Spans as name/parent/start/end arrays plus a JSON index of names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        index = {
            "names": self.names,
            "n_spans": len(self.span_start),
            "layout": "int32 name[n], int64 parent[n] (-1 = root), float64 start[n], float64 end[n]",
        }
        path.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n")
