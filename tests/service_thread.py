"""A live HTTP daemon for tests that talk to it over a socket."""

from __future__ import annotations

import asyncio
import threading

from repro.service.api import ServiceDaemon
from repro.service.daemon import MonitorService


class ServiceThread:
    """Run a :class:`ServiceDaemon` on a background thread.

    ``start()`` blocks until the listening port is known; ``stop()``
    requests a clean shutdown and joins the thread. The wrapped
    :class:`MonitorService` must only be touched from the daemon thread
    while running — interact over HTTP (or after ``stop()``).
    """

    def __init__(
        self, service: MonitorService, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.daemon = ServiceDaemon(service, host=host, port=port)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None

    @property
    def port(self) -> int:
        return self.daemon.port

    @property
    def base_url(self) -> str:
        return f"http://{self.daemon.host}:{self.daemon.port}"

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread failed to start")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.daemon.start()
        self._ready.set()
        await self.daemon.wait_stopped()

    def stop(self, timeout: float = 30.0) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                asyncio.run_coroutine_threadsafe(self.daemon.stop(), loop).result(
                    timeout=timeout
                )
            except Exception:
                pass
        self._thread.join(timeout=timeout)
