"""Offline flight-recorder statistics: ``repro.study trace stats``.

Works from the packed archival form only (``.spans.bin`` files, the
:class:`repro.trace.records.SpanRecord` layout) -- no live kernel
needed -- so it can answer "what did the sampler keep?" for a single
recorded run or a whole campaign ``traces/`` directory long after the
run finished.  Tree structure is rebuilt from the parent links: a
parent's span id always precedes its children's, so a single pass maps
every span to its root.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.trace.records import SpanRecord, unpack_spans


@dataclass
class TraceStats:
    """Aggregated statistics over one or more packed span files."""

    files: int = 0
    spans: int = 0
    trees: int = 0
    #: span-name -> count, insertion-ordered by first appearance.
    by_name: dict = field(default_factory=dict)
    #: tree root span-name -> count (trap trees root at ``fp_fault``).
    roots_by_name: dict = field(default_factory=dict)
    #: fault rip (from root span args) -> tree count.
    by_site: dict = field(default_factory=dict)
    min_tree_spans: int = 0
    max_tree_spans: int = 0
    first_cycle: int | None = None
    last_cycle: int = 0
    pids: set = field(default_factory=set)
    tids: set = field(default_factory=set)

    @property
    def mean_tree_spans(self) -> float:
        return self.spans / self.trees if self.trees else 0.0

    def add_file(self, data: bytes) -> None:
        self.files += 1
        recs = unpack_spans(data)
        self.spans += len(recs)
        root_of: dict[int, int] = {}
        tree_sizes: dict[int, int] = {}
        for r in recs:
            self.by_name[r.name] = self.by_name.get(r.name, 0) + 1
            self.pids.add(r.pid)
            self.tids.add(r.tid)
            if self.first_cycle is None or r.cycles < self.first_cycle:
                self.first_cycle = r.cycles
            if r.cycles > self.last_cycle:
                self.last_cycle = r.cycles
            if r.parent_id == 0:
                root_of[r.span_id] = r.span_id
                tree_sizes[r.span_id] = 1
                self.trees += 1
                self.roots_by_name[r.name] = (
                    self.roots_by_name.get(r.name, 0) + 1)
                rip = _arg(r, "rip")
                if rip is not None:
                    self.by_site[rip] = self.by_site.get(rip, 0) + 1
            else:
                root = root_of.get(r.parent_id)
                if root is None:
                    # Orphan (parent evicted by ring pressure): its own
                    # fragmentary tree.
                    root = r.span_id
                    self.trees += 1
                root_of[r.span_id] = root
                tree_sizes[root] = tree_sizes.get(root, 0) + 1
        if tree_sizes:
            lo, hi = min(tree_sizes.values()), max(tree_sizes.values())
            self.min_tree_spans = (
                lo if self.min_tree_spans == 0
                else min(self.min_tree_spans, lo))
            self.max_tree_spans = max(self.max_tree_spans, hi)

    def render(self) -> str:
        lines = [
            f"files {self.files}  spans {self.spans}  trees {self.trees}  "
            f"spans/tree {self.mean_tree_spans:.1f} "
            f"(min {self.min_tree_spans}, max {self.max_tree_spans})",
            f"cycles [{self.first_cycle or 0}, {self.last_cycle}]  "
            f"pids {len(self.pids)}  tids {len(self.tids)}",
            "",
            f"{'span name':<18s} {'count':>9s}     "
            f"{'tree root':<18s} {'count':>9s}",
        ]
        names = sorted(self.by_name.items(), key=lambda kv: -kv[1])
        roots = sorted(self.roots_by_name.items(), key=lambda kv: -kv[1])
        for i in range(max(len(names), len(roots))):
            l = f"{names[i][0]:<18s} {names[i][1]:>9d}" if i < len(names) \
                else " " * 28
            r = f"{roots[i][0]:<18s} {roots[i][1]:>9d}" if i < len(roots) \
                else ""
            lines.append(f"{l}     {r}".rstrip())
        if self.by_site:
            lines.append("")
            lines.append(f"{'fault site':>18s} {'trees':>9s}")
            top = sorted(self.by_site.items(), key=lambda kv: -kv[1])[:10]
            for rip, n in top:
                lines.append(f"{rip:>#18x} {n:>9d}")
        return "\n".join(lines)


def _arg(rec: SpanRecord, key: str) -> int | None:
    for item in rec.args.split(";") if rec.args else ():
        k, _, v = item.partition("=")
        if k == key:
            try:
                return int(v)
            except ValueError:
                return None
    return None


def collect_stats(path: str) -> TraceStats:
    """Stats for ``path``: one ``.spans.bin`` file, a campaign artifact
    directory (reads ``traces/*.spans.bin``), or a directory of span
    files.  A file that does not decode raises ``ValueError`` naming
    that file."""
    st = TraceStats()
    files = span_files(path)
    if not files:
        raise FileNotFoundError(f"no .spans.bin files under {path!r}")
    for f in files:
        with open(f, "rb") as fh:
            data = fh.read()
        try:
            st.add_file(data)
        except ValueError as exc:
            raise ValueError(f"{f}: {exc}") from None
    return st


def span_files(path: str) -> list[str]:
    if os.path.isfile(path):
        return [path]
    if not os.path.isdir(path):
        return []
    sub = os.path.join(path, "traces")
    root = sub if os.path.isdir(sub) else path
    return sorted(
        os.path.join(root, f)
        for f in os.listdir(root)
        if f.endswith(".spans.bin")
    )
