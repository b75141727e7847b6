"""A minimal stdlib HTTP client for the serve daemon.

:class:`ServeClient` wraps ``urllib.request`` -- one method per
endpoint, JSON in/out.  Any non-2xx response raises :class:`ServeError`
carrying the HTTP status and the structured error body, so callers can
distinguish a 429 rate-limit rejection (``retry_after``) from a 400
validation failure or a 503 shed.  The loadtest harness and the CI
smoke step are both built on this class.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """A structured non-2xx response from the daemon."""

    def __init__(self, status: int, body: dict) -> None:
        detail = body.get("detail") or body.get("error") or "request failed"
        super().__init__(f"HTTP {status}: {detail}")
        self.status = int(status)
        self.body = body

    @property
    def retry_after(self) -> float | None:
        value = self.body.get("retry_after")
        return float(value) if value is not None else None


class ServeClient:
    """One client identity against one daemon base URL."""

    def __init__(self, base_url: str, client_id: str = "anon",
                 timeout: float = 900.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.client_id = client_id
        self.timeout = float(timeout)

    def request(self, method: str, path: str,
                payload: dict | None = None) -> dict:
        url = f"{self.base_url}{path}"
        data = (json.dumps(payload).encode()
                if payload is not None else None)
        req = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json",
                     "X-Repro-Client": self.client_id})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read() or b"{}")
        except urllib.error.HTTPError as e:
            try:
                body = json.loads(e.read() or b"{}")
            except ValueError:
                body = {"error": "http-error", "detail": str(e)}
            raise ServeError(e.code, body) from None

    # -- job endpoints -------------------------------------------------------

    def run(self, **payload) -> dict:
        return self.request("POST", "/v1/run", payload)

    def sweep(self, **payload) -> dict:
        return self.request("POST", "/v1/sweep", payload)

    def chaos(self, **payload) -> dict:
        return self.request("POST", "/v1/chaos", payload)

    def explore(self, **payload) -> dict:
        return self.request("POST", "/v1/explore", payload)

    def batch(self, jobs: list[dict]) -> dict:
        """Many jobs in one request; each needs a ``"kind"`` field."""
        return self.request("POST", "/v1/batch", {"jobs": jobs})

    # -- introspection / lifecycle -------------------------------------------

    def healthz(self) -> dict:
        return self.request("GET", "/v1/healthz")

    def stats(self) -> dict:
        return self.request("GET", "/v1/stats")

    def metrics(self) -> list[dict]:
        return self.request("GET", "/v1/metrics")["records"]

    def shutdown(self) -> dict:
        return self.request("POST", "/v1/shutdown", {})
