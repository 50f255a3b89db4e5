"""The kill set of the mutation harness, pinned.

    python3 -m pytest mutants -q

A mutant that the battery stops killing fails here, and so does a survivor
that starts being killed: move it to KILLED, with its killers, and drop it
from SURVIVORS.  The harness runs once per session, about 20 s.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("mutation_harness", HERE / "run.py")
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)

# mutant -> the suites that kill it, at both orders
KILLED = {
    "soliton-amplitude": ["kdv-residual", "phantom"],
    "record-weights-swapped": ["commutators", "reconstruction", "recurrences"],
    "bracket-sign": ["commutators", "reconstruction"],
    "bracket-halves-swapped": ["commutators", "reconstruction"],
    "weight-plus-one": ["crash"],
    "r-columns-swapped": ["commutators", "reconstruction", "recurrences"],
    "eps-constant-term": ["infinitesimal"],
    "rho-scaling": ["equivariance"],
    "stack-rows-first-jet": ["equivariance", "phantom"],
    "rational-rows-column-major": ["kdv-residual"],
    "rational-rows-first-point": ["kdv-residual"],
    "cancel-scale-dropped": ["singular-sets"],
    "max-condition-low": ["crash"],
}
# survivor -> why the battery misses it, and the ROADMAP item meant to kill it
SURVIVORS = {
    "max-condition": "the seed-0 draws reach condition 99 at most, far from 1e8; may be near-equivalent (ROADMAP items 1 and 5)",
    "prefactor-high-weight": "every suite that relates I_alpha to something else stops at order 4 (ROADMAP items 1 and 5)",
    "i0n-doubled": "invariance and equivariance compare a formula with itself (ROADMAP items 1 and 5)",
}


@pytest.fixture(scope="module")
def results():
    return harness.run_all()


def test_every_mutant_is_pinned_once():
    assert sorted(m.name for m in harness.MUTANTS) == sorted([*KILLED, *SURVIVORS])


def test_an_old_text_that_moved_fails_loudly():
    mutant = harness.MUTANTS[0]
    with pytest.raises(ValueError, match="occurs 0 times"):
        harness.mutated("", mutant)
    with pytest.raises(ValueError, match="occurs 2 times"):
        harness.mutated(mutant.old * 2, mutant)


def test_the_unmutated_battery_fails_only_where_known(results):
    baseline, _ = results
    # invariance on jets after prolong_act loses digits at order 12 (ROADMAP items 3 and 6)
    assert baseline == {6: [], 12: ["invariance"]}


def test_kill_set(results):
    _, killers = results
    assert {name: by_order for name, by_order in killers.items() if any(by_order.values())} == {
        name: dict.fromkeys(harness.ORDERS, suites) for name, suites in KILLED.items()
    }
    assert sorted(name for name, by_order in killers.items() if not any(by_order.values())) == sorted(SURVIVORS)
