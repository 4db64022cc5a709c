"""Fixture: SNAP001 — actorAccessInfo omits the start actor."""

from repro.api import TxnRequest


async def submit(system):
    return await system.submit(TxnRequest.pact(
        "account", "alice", "transfer", (10.0, "bob"),
        access={"bob": 1},
    ))
