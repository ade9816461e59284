"""Negative controls: a subtly wrong kernel must make its acceptance gate fail.

Each row monkeypatches one kernel that an acceptance criterion calls and
runs the criterion, which must then report ``pass=False``.
"""

import numpy as np
import pytest

from conehj import acceptance, bold_xi, is_in_cone
from conehj.nonlinearity import h_eval


def _h_sorted_without_pooling(kappa, reg):
    # sorting keeps the weighted total but is not the least feasible point
    if is_in_cone(kappa):
        return bold_xi(kappa, reg)
    x = np.maximum(np.sort(kappa.scalars), 0.0)
    return float(kappa.partition.widths @ reg.eval_vec(x))


def _h_shifted_off_cone(kappa, reg):
    return h_eval(kappa, reg) + (0.0 if is_in_cone(kappa) else 1e-3)


CONTROLS = [
    # (criterion, kernel name in conehj.acceptance, wrong kernel)
    (acceptance.crit_h_properties, "h_eval", _h_sorted_without_pooling),
    (acceptance.crit_h_properties, "h_eval", _h_shifted_off_cone),
]


@pytest.mark.parametrize("crit, name, wrong", CONTROLS,
                         ids=lambda v: getattr(v, "__name__", None))
def test_wrong_kernel_fails_its_gate(monkeypatch, crit, name, wrong):
    monkeypatch.setattr(acceptance, name, wrong)
    rep = crit(seed=4)
    assert not rep["pass"], rep
