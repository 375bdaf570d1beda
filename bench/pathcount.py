"""Independent count of simple undirected x..y paths of 2..max_hops hops.

Counts by combinatorics over neighbor sets instead of enumerating paths, so
it shares no logic with the program's depth-first enumerator.  It is the
oracle for metapath ``candidate_count`` and truncation.
"""

from __future__ import annotations

from collections import Counter


def count_simple_paths(neighbors: dict, x: str, y: str, max_hops: int) -> int:
    """Simple paths x..y with 2 <= hops <= max_hops (max_hops in 2..4).

    ``neighbors`` maps a node to the set of its undirected neighbors, with
    no self-loops.  The direct x-y edge is never a path.
    """
    if not 2 <= max_hops <= 4:
        raise ValueError("max_hops must be 2, 3 or 4")
    nx, ny = neighbors[x], neighbors[y]
    # 2 hops: x-a-y.
    total = len(nx & ny)
    if max_hops >= 3:
        # 3 hops: x-a-b-y with a != y and b != x.
        for a in nx:
            if a != y:
                common = neighbors[a] & ny
                total += len(common) - (x in common)
    if max_hops >= 4:
        # 4 hops: x-a-b-c-y over middle nodes b, with a != c.
        from_x: Counter = Counter()
        for a in nx:
            if a != y:
                for b in neighbors[a]:
                    if b != x and b != y:
                        from_x[b] += 1
        from_y: Counter = Counter()
        for c in ny:
            if c != x:
                for b in neighbors[c]:
                    if b != x and b != y:
                        from_y[b] += 1
        total += sum(n * from_y[b] for b, n in from_x.items() if b in from_y)
        # Subtract the walks x-a-b-a-y, where a neighbors x, y and b.
        for a in nx & ny:
            for b in neighbors[a]:
                if b != x and b != y:
                    total -= 1
    return total
