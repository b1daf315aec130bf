"""Right-deep segmentation of bushy trees (Figure 5, [CLY92]).

A *segment* is a maximal chain of joins linked through right children:
within a segment all hash tables can be built in parallel from the
joins' left operands, after which the bottom base relation is probed
through the whole chain in one pipeline.  Any bushy tree decomposes
uniquely into such segments; a left-deep tree decomposes into
single-join segments (which is why RD degenerates to SP on it) and a
right-deep tree is a single segment (why RD coincides with FP).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..cost import JoinCost
from ..numeric import ordered_sum
from ..trees import Join, Leaf, Node


@dataclass
class Segment:
    """One right-deep segment.

    ``joins`` lists the member joins top-down: ``joins[k].right`` is
    ``joins[k+1]`` and the last join's right child is a base relation
    (the pipeline's probe source).  ``producers`` are the segments
    whose results feed this segment's left operands; the segment cannot
    start before all of them complete.
    """

    joins: List[Join]
    producers: List["Segment"] = field(default_factory=list)

    @property
    def top(self) -> Join:
        return self.joins[0]

    @property
    def bottom(self) -> Join:
        return self.joins[-1]

    @property
    def probe_relation(self) -> Leaf:
        """The base relation pumped through the probe pipeline."""
        right = self.bottom.right
        assert isinstance(right, Leaf)
        return right

    def __len__(self) -> int:
        return len(self.joins)

    def work(self, annotation: Dict[Join, JoinCost]) -> float:
        """Total estimated cost of the segment's joins."""
        return ordered_sum(annotation[j].cost for j in self.joins)

    def depth(self) -> int:
        """Longest producer chain below this segment (0 = no producers)."""
        if not self.producers:
            return 0
        return 1 + max(p.depth() for p in self.producers)


def decompose(root: Node) -> List[Segment]:
    """Split ``root`` into right-deep segments, root segment first.

    The returned list is in discovery (preorder) order; consumer
    segments appear before their producers.  ``root`` must be a join.
    """
    if not isinstance(root, Join):
        raise ValueError("cannot segment a single base relation")
    segments: List[Segment] = []

    def build(top: Join) -> Segment:
        chain: List[Join] = []
        node: Node = top
        while isinstance(node, Join):
            chain.append(node)
            node = node.right
        segment = Segment(chain)
        segments.append(segment)
        for join in chain:
            if isinstance(join.left, Join):
                segment.producers.append(build(join.left))
        return segment

    build(root)
    return segments


def waves(segments: List[Segment]) -> List[List[Segment]]:
    """Group segments into execution waves.

    Wave ``k`` holds the segments whose longest producer chain has
    length ``k``; the RD strategy runs waves sequentially and the
    segments within a wave in parallel on disjoint processor subsets.
    (Running each segment as soon as *its own* producers finish would
    need dynamic processor reassignment, which the static schedules of
    this reproduction — like the paper's XRA plans — do not express.)
    """
    by_depth: Dict[int, List[Segment]] = {}
    for segment in segments:
        by_depth.setdefault(segment.depth(), []).append(segment)
    return [by_depth[d] for d in sorted(by_depth)]
