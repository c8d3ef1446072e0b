"""Pinned records of sampled checks that do not pass.

The paper suite's checks pass, apart from S8's contact sweeps, so its report
bytes never show a failed, band-undecided or non-finite record of most
sampled check kinds.  Each scenario below drives one such record, and
`golden/outcome_records.json` pins its verdict, evidence and detail.  The
cases are named `<kind> <case>`: `fail` is a decided failure, `band` a
sample that no value decides inside the tolerance or rank band, and
`non_finite` a NaN or infinite value; `float point` fails at a point with
float coordinates.  The golden was written by the engine before the sampled
checks shared one outcome record, apart from seven entries: the two `float
point` entries, whose float coordinates are now printed as JSON numbers;
`rank_at non_finite`, `rank_drop_locus non_finite` and `nearsympl_at
non_finite`, whose NaN or infinite matrices are now counted as non-finite
samples, where they were band hits or, for `nearsympl_at`, a decided
failure; `contact band`, whose samples within the tolerance leave the
check undecided, where they failed it; and `nearsympl_at band`, a float
form matrix whose float rank is in the band, which was a decided failure.
The two `contact jacobian` entries were added when the contact sweep's
Jacobian rank test took the float band and non-finite entries as no
decision: the band one failed on 128 decided drops before, and the
non_finite one ended in `error`, the SVD failing on a NaN.  The three
`stabilize` entries were added when the stabilize search took the outcome
record: its band and non_finite scenarios, whose ranks are full
everywhere, failed with a witness before.
"""

import json
from pathlib import Path

from nsx.runner import RunConfig, _jsonable, run_scenario_text

GOLDEN = Path(__file__).parent / "golden" / "outcome_records.json"

PLANE = "chart C(x, y)\n"
SPACE = "chart C(x, y, z)\n"
FOUR = "chart C(w, x, y, z)\n"
BOX = "region R on C = [-1, 1]^2 lattice 3 random 8\nlocus L on C = coords(x=0)\n"
# A region whose lattice and draws are floats, with an exact locus pin.
FLOAT_BOX = "region R on C = [0.5, 1.5]^{n} lattice 3 random 8\nlocus L on C = coords(x=1)\n"

SCENARIOS = {
    "rank_at fail": PLANE + "form om on C = d(x) /\\ d(y)\ncheck rank_at om, 1 at (x=0, y=0)\n",
    "rank_at band": FOUR + "form om on C = d(w) /\\ d(x) + exp(-21)*d(y) /\\ d(z)\n"
    "check rank_at om, 4 at (w=0, x=0, y=0, z=0)\n",
    "rank_at non_finite": PLANE + "form om on C = 709*exp(709*x)*d(x) /\\ d(y)\ncheck rank_at om, 2 at (x=1, y=0)\n",
    "rank_at float point": PLANE + "form om on C = d(x) /\\ d(y)\n" + FLOAT_BOX.format(n=2)
    + "check rank_at om, 1 on L region R\n",
    "nearsympl_at fail": FOUR + "form om on C = d(w) /\\ d(x) + d(y) /\\ d(z)\n"
    "check nearsympl_at om at (w=0, x=0, y=0, z=0)\n",
    "nearsympl_at band": FOUR + "form om on C = exp(x)*d(w) /\\ d(x) + exp(-21)*d(y) /\\ d(z)\n"
    "check nearsympl_at om at (w=0, x=0, y=0, z=0)\n",
    "nearsympl_at non_finite": FOUR + "form om on C = 709*exp(709*x)*d(w) /\\ d(x) + d(y) /\\ d(z)\n"
    "check nearsympl_at om at (w=0, x=1, y=0, z=0)\n",
    "nearsympl_at float point": "chart C(x, w, y, z)\nform om on C = d(w) /\\ d(x) + d(y) /\\ d(z)\n"
    + FLOAT_BOX.format(n=4) + "check nearsympl_at om on L region R points 2\n",
    "gradient_rank_at fail": PLANE + "form om on C = x*d(x) /\\ d(y)\ncheck gradient_rank_at om, 2 at (x=0, y=0)\n",
    "gradient_rank_at band": PLANE + "form om on C = x*d(x) + exp(-21)*y*d(y)\n"
    "check gradient_rank_at om, 2 at (x=0, y=0)\n",
    "gradient_rank_at non_finite": PLANE + "form om on C = exp(709*x)*d(y)\n"
    "check gradient_rank_at om, 1 at (x=1, y=0)\n",
    "vanishing_locus fail": PLANE + "form om on C = (x + 1)*d(y)\n" + BOX
    + "check vanishing_locus om on L region R off nonzero\n",
    "vanishing_locus band": PLANE + "form om on C = exp(-40)*x*d(y)\n" + BOX
    + "check vanishing_locus om on L region R off nonzero\n",
    "vanishing_locus non_finite": PLANE + "form om on C = x*exp(1000*x)*d(y)\n" + BOX
    + "check vanishing_locus om on L region R off nonzero\n",
    "rank_drop_locus fail": PLANE + "map f : C -> C = (x, y)\n" + BOX
    + "check rank_drop_locus f on L region R regular 2 singular 1\n",
    "rank_drop_locus band": PLANE + "map f : C -> C = (x, exp(-21)*y)\n" + BOX
    + "check rank_drop_locus f on L region R regular 2 singular 1\n",
    "rank_drop_locus non_finite": PLANE + "map f : C -> C = (x, exp(709*x)*y)\n"
    "region R on C = [-1, 1]^2 lattice 3 random 8\nlocus L on C = coords(x=1)\n"
    "check rank_drop_locus f on L region R regular 2 singular 1\n",
    "fixed_points fail": PLANE + "vfield X on C = (x + 1)*e(y)\n" + BOX + "check fixed_points X on L region R\n",
    "fixed_points band": PLANE + "vfield X on C = exp(-40)*x*e(y)\n" + BOX + "check fixed_points X on L region R\n",
    "fixed_points non_finite": PLANE + "vfield X on C = x*exp(1000*x)*e(y)\n" + BOX
    + "check fixed_points X on L region R\n",
    "dividing_set fail": PLANE + "form alpha on C = (x + 1)*d(y)\nvfield X on C = e(y)\n" + BOX
    + "check dividing_set alpha, X, x + 1 on L region R\n",
    "dividing_set mismatch": PLANE + "form alpha on C = x*d(y)\nvfield X on C = e(y)\n" + BOX
    + "check dividing_set alpha, X, x + 1 on L region R\n",
    "dividing_set band": PLANE + "form alpha on C = exp(-40)*x*d(y)\nvfield X on C = e(y)\n" + BOX
    + "check dividing_set alpha, X, exp(-40)*x on L region R\n",
    "dividing_set non_finite": PLANE + "form alpha on C = x*exp(1000*x)*d(y)\nvfield X on C = e(y)\n" + BOX
    + "check dividing_set alpha, X, x*exp(1000*x) on L region R\n",
    "positive fail": PLANE + "form f on C = x\n" + BOX + "check positive f region R\n",
    "positive band": PLANE + "form f on C = exp(-40)*(x + 2)\n" + BOX + "check positive f region R\n",
    "positive non_finite": PLANE + "form f on C = x*y\n"
    "region R on C = [1.0e200, 2.0e200]^2 lattice 2 random 8\ncheck positive f region R\n",
    "contact fail": SPACE + "form alpha on C = d(z) + x^2*d(y)\ncheck contact alpha grid 4\n",
    "contact band": SPACE + "form alpha on C = d(z) + exp(-40)*x^2*d(y)\ncheck contact alpha grid 4\n",
    "contact non_finite": SPACE + "form alpha on C = d(z) + x*exp(1000*x)*d(y)\ncheck contact alpha grid 4\n",
    "stabilize fail": FOUR + "form eta on C = d(w) /\\ d(x)\nform base on C = x*d(y) /\\ d(z)\n"
    "region R on C = [0, 1]^4 lattice 2 random 4\ncheck stabilize eta, base region R k_max 4\n",
    # eta + K*base has rank 4 everywhere; at x = 1 its float rank is in the band.
    "stabilize band": FOUR + "form eta on C = exp(-20*x^2)*d(w) /\\ d(x)\nform base on C = d(y) /\\ d(z)\n"
    "region R on C = [0, 1] x [1, 1] x [0, 1] x [0, 1] lattice 2 random 4\ncheck stabilize eta, base region R\n",
    "stabilize non_finite": FOUR + "form eta on C = 709*exp(709*x)*d(w) /\\ d(x)\nform base on C = d(y) /\\ d(z)\n"
    "region R on C = [0, 1] x [1, 1] x [0, 1] x [0, 1] lattice 2 random 4\ncheck stabilize eta, base region R\n",
    # A diffeomorphism whose Jacobian's singular-value ratio, about e^-21,
    # lies in the rank band at every sample.
    "contact jacobian band": SPACE + "chart P(a, t, p)\nmap m : P -> C = (exp(21)*a + t*t*a, t, p)\n"
    "check contact d(z) + x*d(y) via (m) grid 4\n",
    # The y entry of the Jacobian is inf - inf, NaN, on the grid's last t row.
    "contact jacobian non_finite": SPACE + "chart P(a, t, p)\n"
    "map m : P -> C = (a, t + exp(1000*t - 2000) - exp(999*t - 1998), p)\n"
    "check contact d(z) + x*d(y) via (m) grid 4\n",
}


def outcome_records():
    """The golden file's text: each scenario's one check record."""
    records = {}
    for name, text in SCENARIOS.items():
        report = run_scenario_text(text, "T", "outcome record", RunConfig())
        (check,) = report.checks
        assert check.kind == name.split()[0]
        records[name] = {"verdict": check.verdict, "evidence": _jsonable(check.evidence), "detail": check.detail}
    return json.dumps(records, sort_keys=True, indent=2) + "\n"


def test_non_pass_records_match_golden():
    assert outcome_records() == GOLDEN.read_text()
