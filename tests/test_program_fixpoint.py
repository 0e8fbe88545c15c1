"""The whole-program analyzer's one fixpoint driver against a naive one.

Every interprocedural fact (lock tokens, ownership transfer, lock
reach, reachable blocking I/O) comes from :meth:`Program.propagate`, a
worklist over the reverse call graph.  Here it is checked against the
textbook formulation kept below — sweep every function until nothing
changes — on generated modules with self-recursion, mutual recursion
and leaves that lock or fsync.  Every pass must report the same
findings under both drivers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.program import analyze_program_sources, build_program
from repro.analysis.program.passes import PASS_NAMES, Program, run_passes


class NaiveProgram(Program):
    """``Program`` with the driver rewritten as a ``while changed`` loop."""

    def propagate(self, seeds, skip=None, edge=None):
        def skipped(summary):
            return skip is not None and skip(summary)

        facts = {
            ref: set() if skipped(summary) else set(seeds.get(ref, ()))
            for ref, summary in self.summaries.items()
        }
        changed = True
        while changed:
            changed = False
            for ref, summary in self.summaries.items():
                if skipped(summary):
                    continue
                for event in summary.events:
                    if event.kind != "call":
                        continue
                    if edge is not None and not edge(summary, event):
                        continue
                    for callee in self.resolve(event.callee or ""):
                        if skipped(callee):
                            continue
                        new = facts[callee.ref] - facts[ref]
                        if new:
                            facts[ref] |= new
                            changed = True
        return {ref: found for ref, found in facts.items() if found}


#: statement templates a generated method body is drawn from; ``{f}``
#: is a callee name, ``{r}`` a lock resource
LEAVES = [
    "m.acquire(t, '{r}', 'X')",
    "self.wal.commit()",
]
CALLS = [
    "self.{f}(m, t)",
    "x = self.{f}(m, t)",
]

#: generated names include the release verb (QA803 stops there), so
#: the skip rule meets recursion too
SPECIAL_NAMES = ["commit"]


@st.composite
def modules(draw):
    count = draw(st.integers(min_value=2, max_value=12))
    names = [f"f{i}" for i in range(count)]
    for index, special in enumerate(SPECIAL_NAMES):
        if index < count and draw(st.booleans()):
            names[index] = special
    lines = ["class Store:"]
    for name in names:
        body = draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("leaf"), st.sampled_from(LEAVES)),
                    st.tuples(st.just("call"), st.sampled_from(CALLS)),
                ),
                max_size=5,
            )
        )
        lines.append(f"    def {name}(self, m, t):")
        for _, template in body:
            lines.append(
                "        "
                + template.format(
                    f=draw(st.sampled_from(names)),
                    r=draw(st.sampled_from("ABC")),
                )
            )
        # returning a bound call result makes the callee's ownership
        # transfer (QA803's held-region rule) flow into this method
        returns = any(t.startswith("x =") for _, t in body)
        lines.append(
            "        return x"
            if returns and draw(st.booleans())
            else "        pass"
        )
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(modules())
def test_every_pass_agrees_with_the_naive_fixpoint(source):
    sources = {"synth/store.py": source}
    program = build_program(sources)
    naive = NaiveProgram(program.graph, program.summaries)
    expected = run_passes(naive, set(PASS_NAMES))
    assert analyze_program_sources(sources) == expected


@settings(max_examples=100, deadline=None)
@given(modules(), st.booleans())
def test_propagated_facts_agree(source, bound_only):
    program = build_program({"synth/store.py": source})
    naive = NaiveProgram(program.graph, program.summaries)
    seeds = {
        ref: {e.token for e in summary.acquire_events()}
        for ref, summary in program.summaries.items()
    }

    def skip(summary):
        return summary.info.name == "commit"

    def edge(caller, event):
        return not bound_only or event.bound is not None

    assert program.propagate(seeds, skip, edge) == naive.propagate(
        seeds, skip, edge
    )
