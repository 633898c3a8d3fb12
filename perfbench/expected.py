"""Known answers for the benchmark, written down by hand.

None of these comes from running the verifier.  Library verdicts follow
the SATISFIED/VIOLATED labels in the library docstrings; each decisive
valuation (the first violated valuation in the sweep's canonical order)
is pinned here once with the reason it must be the decisive one.
"""

#: expand-batch: the ecommerce domain (``repro profile ecommerce`` plus the
#: liveness property).  Property name -> (satisfied, decisive valuation).
EXPAND_BATCH = {
    # "Safety (holds)" in repro.library.ecommerce
    "ship_requires_auth": (True, None),
    "no_ship_on_decline": (True, None),
    "auth_honest": (True, None),
    # "Liveness (fails under lossy channels)".  Any order can be lost, so
    # the first valuation decides; the candidates are p=widget and
    # card in (visa, amex), and "amex" sorts before "visa".
    "order_resolved": (False, {"p": "widget", "card": "amex"}),
}

#: The ecommerce valuation candidates ``repro profile ecommerce`` uses.
EXPAND_BATCH_CANDIDATES = {"p": ("widget",), "card": ("visa", "amex")}

#: valuation-sweep: the E14 wide candidate pool for the loan letter
#: property (180 canonical valuations over the "fair" database).
LOAN_WIDE_CANDIDATES = {
    "id": ("c1", "s1", "ann", "small", "acct1"),
    "name": ("ann", "c1", "small", "high"),
    "loan": ("small", "large", "c1", "fair"),
    "dec": ("approved", "denied", "large", "high"),
}

#: The loan letter property holds for every credit category: the officer
#: writes a letter only from a saved application (the "related safety
#: property" of repro.library.loan), whatever rating the agency returns.
LOAN_LETTER = (True, None)

#: dispatch request_served, "Liveness (VIOLATED under lossy channels)".
#: The candidates are z in (downtown, airport); "airport" comes first in
#: the sweep but the rider never requests it (``places`` holds only
#: downtown), so the decisive valuation is the second one.
DISPATCH_REQUEST_SERVED = (False, {"z": "downtown"})

#: payments refund_after_capture, "Safety (VIOLATED)": the chargeback
#: race needs an order the bank flags as risky, and only g2 is.  The
#: sweep visits g1 first, so the decisive valuation is the second one.
PAYMENTS_REFUND_AFTER_CAPTURE = (False, {"x": "g2"})

#: spec-corpus: every generated spec (repro.fuzz.generate) carries the
#: same two properties over a source -> relays -> sink pipeline.
#: ``safety`` holds structurally: the sink only stores values relayed
#: from the source's ``items``.  ``liveness`` fails on every verifiable
#: row: without fairness a run may stop scheduling the sink after a pick
#: (and lossy rows may drop the message), so the first valuation whose
#: ``x`` the source can pick (an ``items`` value) is decisive.  Where the
#: generator states its own ``expected_verdicts`` (row 3.4) they agree.
SPEC_CORPUS = {"safety": True, "liveness": False}
