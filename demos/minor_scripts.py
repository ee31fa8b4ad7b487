"""
Replaying the bundled minor-reduction scripts
=============================================

Each script is a short list of edge deletions and contractions taking a
host fixture to a named family member.  Verification replays the steps,
checks the result against the target by isomorphism, and builds a branch
set model so cycles of the target can be lifted back into the host.
"""

from spatialgraphs.catalog import family_member, fixture, reduction_scripts
from spatialgraphs.cycles import disjoint_cycle_tuples, format_cycle, lift_cycles
from spatialgraphs.minors import verify_minor_script

for src, tgt, script in reduction_scripts(primary_only=True):
    host = fixture(src)
    model = verify_minor_script(host, script, family_member(tgt))
    steps = len(script.steps)
    print(f"{src:5s} -> {tgt:4s}  {steps} steps  ok={model is not None}")

# lift the disjoint cycle pairs of one target up into its host
src, tgt, script = reduction_scripts()[1]
host = fixture(src)
model = verify_minor_script(host, script, family_member(tgt))
pairs = disjoint_cycle_tuples(model.pattern, 2)
lifted = lift_cycles(model, pairs)
print()
print(f"disjoint pairs of {tgt} seen inside {src}:")
for image in sorted(
    {frozenset(format_cycle(host, c) for c in t) for t in lifted.values()},
    key=sorted,
):
    print("  " + "  ".join(sorted(image)))
