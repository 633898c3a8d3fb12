"""``repro merge-shards`` never unpickles what a fragment file carries.

Fragments are JSON files that may come from other machines.  Each
counterexample travels twice in them: as pre-rendered text and as a
base64 pickle that only in-process callers
(:func:`repro.verifier.result_from_merged`) load.  The CLI prints the
verdict, the stats and the text, built from the merged JSON, so a
fragment whose pickle would run code when loaded must merge with the
usual exit status and without running it.
"""

from __future__ import annotations

import base64
import json
import pathlib
import pickle

from repro.cli import main
from repro.fo import Instance
from repro.spec import Composition, PeerBuilder
from repro.verifier import (
    shard_fragment, verification_domain, verify,
)

LIVENESS = "forall x: G( S.pick(x) -> F R.got(x) )"


class _TouchOnLoad:
    """Unpickling this creates the marker file."""

    def __init__(self, marker: pathlib.Path) -> None:
        self.marker = marker

    def __reduce__(self):
        return (pathlib.Path.touch, (self.marker,))


def _sender_receiver():
    sender = (
        PeerBuilder("S")
        .database("items", 1)
        .input("pick", 1)
        .flat_out_queue("msg", 1)
        .input_rule("pick", ["x"], "items(x)")
        .send_rule("msg", ["x"], "pick(x)")
        .build()
    )
    receiver = (
        PeerBuilder("R")
        .state("got", 1)
        .flat_in_queue("msg", 1)
        .insert_rule("got", ["x"], "?msg(x)")
        .build()
    )
    return (Composition([sender, receiver]),
            {"S": Instance({"items": [("a",), ("b",)]})})


def test_merge_shards_does_not_unpickle_fragments(tmp_path, capsys):
    comp, dbs = _sender_receiver()
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    marker = tmp_path / "unpickled.marker"
    payload = base64.b64encode(
        pickle.dumps(_TouchOnLoad(marker))).decode("ascii")
    paths = []
    for index in range(2):
        result = verify(comp, LIVENESS, dbs, domain=dom,
                        shard=(index, 2))
        fragment = shard_fragment([result], (index, 2), composition=comp)
        for entry in fragment["properties"]:
            if entry["counterexample"] is not None:
                entry["counterexample"]["pickle"] = payload
        path = tmp_path / f"shard_{index}.json"
        path.write_text(json.dumps(fragment))
        paths.append(str(path))

    code = main(["merge-shards", *paths, "--counterexample"])
    out = capsys.readouterr().out
    assert code == 1  # VIOLATED, as the unsharded run
    assert "VIOLATED" in out
    assert "counterexample to:" in out
    assert not marker.exists(), "merge-shards unpickled a fragment"
