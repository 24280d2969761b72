"""Keep-alive HTTP/1.1 client and the two service traffic shapes.

One benchmark process drives ``repro serve`` over two connections.  Every
request is stored whole (send time, receive time, status, body) and checked
only after the timed window closes, so checking costs the server nothing.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.service import wire


@dataclass
class Exchange:
    kind: str  # "submit", "metricsz", "hits", "healthz"
    sent: float
    received: float
    status: int  # 0 for a connection error or timeout
    body: bytes
    keys: tuple[int, ...] = ()
    #: for scheduled scrapes, when the scrape was due (else ``sent``)
    due: float = 0.0

    @property
    def ms(self) -> float:
        return (self.received - (self.due or self.sent)) * 1e3


class Connection:
    """One keep-alive connection; requests go strictly one at a time."""

    def __init__(self, port: int, timeout: float) -> None:
        self.port = port
        self.timeout = timeout
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.writer = None

    async def request(
        self, kind: str, method: str, path: str, body: bytes = b"",
        ctype: str = "application/json", keys: tuple[int, ...] = (), due: float = 0.0,
    ) -> Exchange:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: {ctype}\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        sent = time.perf_counter()
        try:
            status, payload = await asyncio.wait_for(
                self._roundtrip(head + body), self.timeout
            )
        except (
            OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError, IndexError,
        ):
            await self.close()
            status, payload = 0, b""
        return Exchange(kind, sent, time.perf_counter(), status, payload, keys, due)

    async def _roundtrip(self, data: bytes) -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port
            )
        self.writer.write(data)
        await self.writer.drain()
        status_line = await self.reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)


def submit_bodies(chunks: list[list[int]]) -> list[tuple[bytes, tuple[int, ...]]]:
    """RGWIRE1 bodies, encoded before the timed window opens."""
    return [(wire.encode_moduli(chunk), tuple(chunk)) for chunk in chunks]


async def _submit(conn: Connection, body: bytes, keys: tuple[int, ...]) -> Exchange:
    return await conn.request(
        "submit", "POST", "/submit?wait=1", body, wire.CONTENT_TYPE, keys
    )


async def drive_stream(
    port: int, bodies: list[tuple[bytes, tuple[int, ...]]], seconds: float,
    timeout: float,
) -> tuple[list[Exchange], float]:
    """A closed-loop submitter of fresh chunks beside an operator scraping
    ``/metricsz`` once a second, each scrape timed from when it was due."""
    submitter, operator = Connection(port, timeout), Connection(port, timeout)
    log: list[Exchange] = []
    start = time.perf_counter()
    end = start + seconds

    async def submit_loop() -> None:
        for body, keys in bodies:
            if time.perf_counter() >= end:
                return
            log.append(await _submit(submitter, body, keys))
        raise RuntimeError("stream ran out of fresh keys before the window closed")

    async def scrape_loop() -> None:
        due = start + 1.0
        while due < end:
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            log.append(await operator.request("metricsz", "GET", "/metricsz", due=due))
            due += 1.0

    try:
        await asyncio.gather(submit_loop(), scrape_loop())
    finally:
        await submitter.close()
        await operator.close()
    return log, time.perf_counter() - start


async def drive_lookup(
    port: int, bodies: list[tuple[bytes, tuple[int, ...]]], seconds: float,
    timeout: float,
) -> tuple[list[Exchange], float]:
    """Two closed-loop connections resubmitting registered chunks; every
    20th request on the second is replaced by the three operator reads."""
    log: list[Exchange] = []
    start = time.perf_counter()
    end = start + seconds

    async def loop(conn: Connection, offset: int, operator: bool) -> None:
        k = 0
        while time.perf_counter() < end:
            k += 1
            if operator and k % 20 == 0:
                for kind in ("metricsz", "hits", "healthz"):
                    log.append(await conn.request(kind, "GET", "/" + kind))
                continue
            body, keys = bodies[(offset + k) % len(bodies)]
            log.append(await _submit(conn, body, keys))

    conns = [Connection(port, timeout), Connection(port, timeout)]
    try:
        await asyncio.gather(
            loop(conns[0], 0, False), loop(conns[1], len(bodies) // 2, True)
        )
    finally:
        for conn in conns:
            await conn.close()
    return log, time.perf_counter() - start


async def fetch(port: int, path: str, timeout: float) -> Exchange:
    conn = Connection(port, timeout)
    try:
        return await conn.request(path.strip("/"), "GET", path)
    finally:
        await conn.close()
