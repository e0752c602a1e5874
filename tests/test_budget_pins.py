"""Step-budget pins: the least budget at which each normalizer and each trace
succeeds on a few corpus programs, recorded before the three calculi were
folded into one kernel.  Each must succeed at its pin and raise
StepBudgetExceeded one step below it, so the kernel counts exactly the steps
the hand-written reducers counted."""

import pytest

from defuncc.cc import SIGMA, cc_normalize, cc_reduce_trace
from defuncc.dcc import dcc_calculus, dcc_normalize
from defuncc.defun import defun
from defuncc.errors import StepBudgetExceeded
from defuncc.kernel import Budget, normalize, reduce_trace
from defuncc.sigma import ccs_reduce_trace

# program -> least budget for (cc_normalize, dcc_normalize, ccs_normalize,
#                              cc_reduce_trace, dcc_reduce_trace, ccs_reduce_trace)
PINS = {
    "arith_beta": (4, 4, 11, 4, 4, 11),
    "church_pairs": (7, 7, 15, 7, 7, 15),
    "compose_nat_ground": (11, 11, 24, 11, 11, 24),
    "const": (4, 4, 5, 4, 4, 5),
    "defs_expansion": (6, 6, 17, 6, 6, 17),
    "twice": (6, 6, 17, 6, 6, 17),
}
RUNNERS = (
    "cc_normalize", "dcc_normalize", "ccs_normalize",
    "cc_reduce_trace", "dcc_reduce_trace", "ccs_reduce_trace",
)


def _runners(ctx, term):
    res = defun(ctx, term)
    defs = res.labels
    return {
        "cc_normalize": lambda b: cc_normalize(term, b),
        "dcc_normalize": lambda b: dcc_normalize(defs, res.term, b),
        "ccs_normalize": lambda b: normalize(SIGMA, term, Budget(b)),
        "cc_reduce_trace": lambda b: cc_reduce_trace(term, b),
        "dcc_reduce_trace": lambda b: reduce_trace(dcc_calculus(defs), res.term, Budget(b)),
        "ccs_reduce_trace": lambda b: ccs_reduce_trace(term, b),
    }


@pytest.mark.parametrize("stem", sorted(PINS))
def test_least_budget_is_pinned(elaborated, stem):
    elab = elaborated(stem)
    runners = _runners(elab.ctx, elab.main)
    for name, pin in zip(RUNNERS, PINS[stem]):
        runners[name](pin)
        with pytest.raises(StepBudgetExceeded):
            runners[name](pin - 1)
