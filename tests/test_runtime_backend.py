"""Unit tests for the runtime-backend seam (repro.runtime).

Covers backend construction/coercion, the kernel's single dispatch path,
AioFuture's sim-future semantics, the duplex-stream transport, and the
engine end-to-end on the asyncio substrate (single- and multi-silo).
"""

import asyncio

import pytest

from repro.api import TxnRequest
from repro.core.config import SnapperConfig
from repro.core.system import SnapperSystem
from repro.actors.runtime import SiloConfig
from repro.errors import CancelledError, SimulationError
from repro.runtime import BACKENDS, as_backend, create_backend
from repro.runtime import kernel
from repro.runtime.aio_backend import AsyncioBackend
from repro.runtime.sim_backend import SimBackend
from repro.sim.loop import SimLoop
from repro.workloads.smallbank import SnapperAccountActor


class TestBackendConstruction:
    def test_registry(self):
        assert BACKENDS == ("sim", "asyncio")
        with pytest.raises(ValueError):
            create_backend("zookeeper")

    def test_config_validates_backend(self):
        with pytest.raises(ValueError):
            SnapperConfig(runtime_backend="zookeeper")

    def test_as_backend_coercions(self):
        loop = SimLoop(seed=4)
        wrapped = as_backend(loop)
        assert isinstance(wrapped, SimBackend)
        assert wrapped.loop is loop
        # a loop has one adapter: the one it installs while it runs
        assert as_backend(loop) is wrapped
        seen = []
        async def probe():
            seen.append(kernel.current_backend())
        loop.run_until_complete(probe())
        assert seen == [wrapped]
        # a backend passes through unchanged
        assert as_backend(wrapped) is wrapped
        # None makes a fresh deterministic backend
        fresh = as_backend(None, seed=9)
        assert isinstance(fresh, SimBackend)
        assert fresh.deterministic

    def test_sim_backend_delegates_clock(self):
        backend = SimBackend(SimLoop(seed=0))
        async def nap():
            await backend.sleep(1.5)
            return backend.now
        assert backend.run_until_complete(nap()) == pytest.approx(1.5)

    def test_system_loop_alias_is_simloop(self):
        """Legacy surface: `system.loop` stays the raw SimLoop."""
        system = SnapperSystem(seed=1)
        assert isinstance(system.loop, SimLoop)
        assert system.backend.loop is system.loop


class TestKernelDispatch:
    def test_kernel_call_outside_any_run_raises(self):
        assert kernel.current_backend() is None
        with pytest.raises(SimulationError, match="outside any run"):
            kernel.create_future("x")
        with pytest.raises(SimulationError, match="outside any run"):
            kernel.now()
        with pytest.raises(SimulationError, match="outside any run"):
            kernel.current_loop()

    def test_install_is_scoped_to_run(self):
        backend = AsyncioBackend(seed=0, transport=False)
        async def probe():
            return kernel.current_backend()
        assert backend.run_until_complete(probe()) is backend
        assert kernel.current_backend() is None
        backend.close()


class TestAioFuture:
    def setup_method(self):
        self.backend = AsyncioBackend(seed=0, transport=False)

    def teardown_method(self):
        self.backend.close()

    def test_inline_callbacks_and_try_set(self):
        fut = self.backend.create_future("f")
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        assert fut.try_set_result(7)
        assert seen == [7]          # callback ran inline, like sim
        assert not fut.try_set_result(8)
        fut.add_done_callback(lambda f: seen.append("late"))
        assert seen == [7, "late"]  # late subscriber fires immediately

    def test_cancel_raises_repro_cancelled(self):
        fut = self.backend.create_future("f")
        assert fut.cancel("nope")
        with pytest.raises(CancelledError):
            fut.result()

    def test_await_bridges_exception(self):
        async def main():
            fut = self.backend.create_future("f")
            self.backend.call_later(0.0, fut.try_set_exception,
                                    ValueError("boom"))
            with pytest.raises(ValueError):
                await fut
        self.backend.run_until_complete(main())

    def test_result_before_done_raises(self):
        fut = self.backend.create_future("f")
        with pytest.raises(SimulationError):
            fut.result()


class TestAsyncioPrimitives:
    def test_gather_and_wait_for(self):
        backend = AsyncioBackend(seed=0, transport=False)
        async def slow(value, delay):
            await backend.sleep(delay)
            return value
        async def main():
            results = await backend.gather(slow("a", 0.02), slow("b", 0.01))
            assert results == ["a", "b"]       # declaration order, like sim
            with pytest.raises(TimeoutError):
                await backend.wait_for(slow("c", 5.0), timeout=0.02)
        backend.run_until_complete(main())
        backend.close()

    def test_run_requires_deadline(self):
        backend = AsyncioBackend(seed=0, transport=False)
        with pytest.raises(SimulationError):
            backend.run()
        backend.close()

    def test_run_until_complete_deadline(self):
        backend = AsyncioBackend(seed=0, transport=False)
        async def forever():
            await backend.sleep(60.0)
        with pytest.raises(SimulationError):
            backend.run_until_complete(forever(), until=0.05)
        backend.close()


class TestTransport:
    def test_cross_silo_roundtrip_carries_silo_tag(self):
        backend = AsyncioBackend(seed=1)
        hits = []
        async def main():
            backend.deliver(
                0.0, lambda: hits.append(backend.current_silo()),
                silo=2, cross_silo=True,
            )
            backend.deliver(0.0, lambda: hits.append("local"), silo=0)
            await asyncio.sleep(0.2)
        backend.run_until_complete(main())
        assert sorted(map(str, hits)) == ["2", "local"]
        assert backend.transport_messages == 1
        assert backend.transport_bytes == 8
        backend.close()

    def test_multisilo_engine_end_to_end(self):
        """8 PACTs across 3 silos over real sockets: money conserved."""
        config = SnapperConfig(runtime_backend="asyncio")
        system = SnapperSystem(
            config=config, silo=SiloConfig(seed=7, num_silos=3), seed=7
        )
        system.register_actor("account", SnapperAccountActor)
        system.start()

        async def burst():
            from repro.runtime.kernel import gather
            subs = [
                system.submit(TxnRequest.pact(
                    "account", i, "multi_transfer",
                    (1.0, [(i + 1) % 8, (i + 2) % 8]),
                    access={i: 1, (i + 1) % 8: 1, (i + 2) % 8: 1},
                ))
                for i in range(8)
            ]
            await gather(*subs)
            reads = [
                system.submit(TxnRequest.act("account", i, "balance")) for i in range(8)
            ]
            return await gather(*reads)

        balances = system.run(burst())
        assert sum(balances) == pytest.approx(8 * 20_000.0)
        assert system.runtime.cross_silo_messages > 0
        assert system.backend.transport_messages > 0
        system.shutdown()
        system.backend.close()

    def test_close_is_idempotent(self):
        backend = AsyncioBackend(seed=0)
        backend.close()
        backend.close()
