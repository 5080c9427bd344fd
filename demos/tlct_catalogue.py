"""Catalogue the total log canonical thresholds of all valid surface specs.

A spec is a multiset of Du Val singularities (rank sum at most 8, plus the
exclusion rules around rank-7/8 points and E6) together with an assertion
about cuspidal anticanonical members.  The space is finite; we enumerate
it, bucket it by tlct value, and show the Kodaira fiber type witnessing
each minimum.
"""

from collections import defaultdict

from delpezzo1 import iter_valid_specs, lct_config, realizable_configurations, tlct


def main():
    buckets = defaultdict(list)
    for s in iter_valid_specs():
        result = tlct(s)
        buckets[result.value].append((s, result))

    total = sum(len(v) for v in buckets.values())
    print(f"{total} valid specs across {len(buckets)} threshold values\n")

    for value in sorted(buckets):
        specs = buckets[value]
        kodairas = sorted({r.kodaira.text for _, r in specs})
        print(f"tlct = {str(value):>4}: {len(specs):3d} specs, fibers {kodairas}")
        sample, result = specs[0]
        print(f"              e.g. {sample} -> {result}")

    # spot-check one spec: the least lct_config over its realizable configurations
    sample, result = buckets[min(buckets)][0]
    least = min(lct_config(c) for c in realizable_configurations(sample))
    print(f"\nlct_config agreement on {sample}: table {result.value}, configurations {least}")
    assert least == result.value


if __name__ == "__main__":
    main()
