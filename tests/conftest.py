"""Shared fixtures: a SmallBank-style account actor and system builders."""

import pytest

from repro import (
    AccessMode,
    FuncCall,
    SnapperConfig,
    SnapperSystem,
    TransactionalActor,
)
from repro.actors.runtime import SiloConfig
from repro.runtime import kernel
from repro.runtime.sim_backend import SimBackend


class AccountActor(TransactionalActor):
    """The paper's Fig. 2 account actor: state is a float balance."""

    def initial_state(self):
        return 100.0

    async def balance(self, ctx, _input=None):
        return await self.get_state(ctx, AccessMode.READ)

    async def deposit(self, ctx, money):
        state = await self.get_state(ctx, AccessMode.READ_WRITE)
        self._state = state + money
        return self._state

    async def withdraw(self, ctx, money):
        state = await self.get_state(ctx, AccessMode.READ_WRITE)
        if state < money:
            raise ValueError("balance insufficient")
        self._state = state - money
        return self._state

    async def transfer(self, ctx, txn_input):
        """Withdraw locally, deposit to another account (Fig. 2)."""
        money, to_key = txn_input
        balance = await self.withdraw(ctx, money)
        await self.call_actor(
            ctx, self.ref("account", to_key).id, FuncCall("deposit", money)
        )
        return balance

    async def multi_transfer(self, ctx, txn_input):
        """Withdraw locally, deposit to several accounts in parallel (§5.1.1)."""
        money, to_keys = txn_input
        balance = await self.withdraw(ctx, money * len(to_keys))
        from repro.sim import gather, spawn

        await gather(
            *[
                spawn(
                    self.call_actor(
                        ctx,
                        self.ref("account", key).id,
                        FuncCall("deposit", money),
                    )
                )
                for key in to_keys
            ]
        )
        return balance

    async def noop(self, ctx, _input=None):
        return "ok"


def build_system(seed=0, **config_kwargs):
    silo_kwargs = config_kwargs.pop("silo", {})
    system = SnapperSystem(
        config=SnapperConfig(**config_kwargs),
        silo=SiloConfig(**silo_kwargs),
        seed=seed,
    )
    system.register_actor("account", AccountActor)
    system.start()
    return system


@pytest.fixture
def system():
    return build_system()


@pytest.fixture
def sim_backend():
    """A SimBackend in the kernel dispatch slot for the whole test, for
    unit tests that drive engine structures outside any run."""
    backend = SimBackend(seed=0)
    previous = kernel.install(backend)
    yield backend
    kernel.install(previous)
