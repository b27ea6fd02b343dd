"""Stdlib JSON endpoint over a :class:`~repro.service.SolveService`.

No third-party web framework: a :class:`ThreadingHTTPServer` whose
handler translates JSON requests into service submissions. Each HTTP
connection runs on its own thread, so concurrent clients exercise the
cache's single-flight and the rhs batcher exactly like in-process
callers.

Routes
------
``POST /solve``
    Body::

        {
          "problem": {"type": "laplace_volume", "m": 64},
          "rhs": {"seed": 3},                  # or {"values": [...]},
                                               # {"re": [...], "im": [...]},
                                               # or omitted (default_rhs)
          "method": "direct",                  # + tol/maxiter/restart/
          "execution": "sequential",           #   ranks/srs {...}
          "return_x": false,                   # ship the solution vector
          "relres": true                       # evaluate the true residual
        }

    Response: ``{"report": SolveReport.to_dict(), "request_id": ..., "x": ...?}``.
``GET /stats``
    The service's :class:`~repro.service.stats.ServiceStats` as JSON.
``GET /metrics``
    The process-wide metrics registry, then the service's own
    (``repro_service_events_total`` and the latency / batch-occupancy
    histograms), in Prometheus text exposition format 0.0.4 (cache
    residency gauges are refreshed per scrape).
``GET /healthz``
    ``{"ok": true}`` — liveness probe.
``GET /debug``
    Live observability dashboard (strict-XHTML, auto-refreshing):
    service stats, solver health, resources (RSS, rank pools, store
    tiers, read per request), recent requests, profiler status. See
    :mod:`repro.service.debug`.
``GET /debug/profile?format=speedscope|folded``
    The process profiler's current sample table as speedscope JSON or
    folded-stack text (empty until ``REPRO_OBS_PROFILE_HZ`` or a manual
    ``profile.start()`` collects samples).

Every response carries an ``X-Request-Id`` header (client-supplied
``request_id`` body field, or a fresh hex id); errors are structured as
``{"error": ..., "code": ..., "request_id": ...}`` with ``code`` one of
``bad_json`` / ``unknown_field`` / ``bad_field`` / ``not_found`` /
``overloaded`` / ``solver_error`` / ``internal``, plus a ``field`` key
when a specific body field is at fault. ``overloaded`` arrives with
status 429 when admission control (``ServiceConfig.max_pending``)
refuses the request; back off and retry.

Problem specs are built through a registry (:data:`PROBLEM_TYPES`) and
cached (LRU) by their canonical JSON, so repeated requests for the same
operator reuse one problem object — and therefore one memoized
fingerprint and one cached factorization.
"""

from __future__ import annotations

import io
import json
import uuid
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.api.config import SolveConfig
from repro.core.options import SRSOptions
from repro.obs import REGISTRY, log_event, profile, render_prometheus
from repro.obs.lockwatch import make_lock
from repro.service.debug import render_debug
from repro.service.service import ServiceOverloadedError, SolveService

#: most distinct problem objects kept alive by one server
PROBLEM_CACHE_SIZE = 32

#: seconds a connection may stay silent while a request is read (or
#: between kept-alive requests) before the stdlib handler drops it
READ_TIMEOUT_S = 60.0

#: SolveConfig fields settable through the request body
_CONFIG_KEYS = ("method", "execution", "ranks", "tol", "maxiter", "restart")

#: every key a /solve body may carry; anything else is rejected with
#: an ``unknown_field`` error naming the offender
_ALLOWED_KEYS = frozenset(
    _CONFIG_KEYS + ("problem", "rhs", "srs", "return_x", "relres", "request_id")
)

_CACHE_BYTES = REGISTRY.gauge(
    "repro_service_cache_bytes", "Bytes resident in the factorization cache"
)
_CACHE_ENTRIES = REGISTRY.gauge(
    "repro_service_cache_entries", "Entries resident in the factorization cache"
)


class RequestError(ValueError):
    """A client-shaped failure with a structured error code.

    Raised by body validation; carries the machine-readable ``code``
    (and the offending ``field``, when one is identifiable) that the
    HTTP front serializes into the error payload.
    """

    def __init__(self, message: str, *, code: str = "bad_field", field: str | None = None):
        super().__init__(message)
        self.code = code
        self.field = field


def _build_curve(spec: dict):
    from repro.bie.curves import Circle, Ellipse, Kite, StarCurve

    kinds: dict[str, Callable] = {
        "circle": lambda s: Circle(radius=float(s.get("radius", 1.0))),
        "ellipse": lambda s: Ellipse(a=float(s.get("a", 1.0)), b=float(s.get("b", 0.5))),
        "star": lambda s: StarCurve(
            radius=float(s.get("radius", 1.0)),
            amplitude=float(s.get("amplitude", 0.3)),
            arms=int(s.get("arms", 5)),
        ),
        "kite": lambda s: Kite(scale=float(s.get("scale", 1.0))),
    }
    kind = spec.get("type", "circle")
    if kind not in kinds:
        raise ValueError(f"unknown curve type {kind!r}; expected one of {sorted(kinds)}")
    return kinds[kind](spec)


def _laplace_volume(spec: dict):
    from repro.apps.laplace_volume import LaplaceVolumeProblem

    return LaplaceVolumeProblem(m=int(spec["m"]))


def _scattering(spec: dict):
    from repro.apps.scattering import ScatteringProblem

    return ScatteringProblem(int(spec["m"]), float(spec["kappa"]))


def _interior_dirichlet(spec: dict):
    from repro.bie.solves import InteriorDirichletProblem

    return InteriorDirichletProblem(_build_curve(spec.get("curve", {})), int(spec["n"]))


def _sound_soft(spec: dict):
    from repro.bie.solves import SoundSoftScattering

    return SoundSoftScattering(
        _build_curve(spec.get("curve", {})), int(spec["n"]), float(spec["kappa"])
    )


#: JSON problem-spec builders; register new workloads here
PROBLEM_TYPES: dict[str, Callable[[dict], object]] = {
    "laplace_volume": _laplace_volume,
    "scattering": _scattering,
    "interior_dirichlet": _interior_dirichlet,
    "sound_soft": _sound_soft,
}


def build_problem(spec: dict):
    """Instantiate the problem named by a JSON spec (no caching)."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError('problem spec must be an object with a "type" field')
    kind = spec["type"]
    if kind not in PROBLEM_TYPES:
        raise ValueError(
            f"unknown problem type {kind!r}; expected one of {sorted(PROBLEM_TYPES)}"
        )
    return PROBLEM_TYPES[kind](spec)


def _decode_rhs(problem, spec) -> np.ndarray | None:
    if spec is None:
        return None
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float)
    if not isinstance(spec, dict):
        raise ValueError("rhs must be a list, an object, or omitted")
    if "values" in spec:
        return np.asarray(spec["values"], dtype=float)
    if "re" in spec:
        re = np.asarray(spec["re"], dtype=float)
        im = np.asarray(spec.get("im", np.zeros_like(re)), dtype=float)
        return re + 1j * im
    if "seed" in spec:
        return problem.random_rhs(int(spec["seed"]), nrhs=int(spec.get("nrhs", 1)))
    raise ValueError('rhs object must carry "values", "re"/"im", or "seed"')


def _encode_x(x: np.ndarray):
    if np.iscomplexobj(x):
        return {"re": x.real.tolist(), "im": x.imag.tolist()}
    return x.tolist()


def _decode_srs(body: dict) -> SRSOptions:
    if not isinstance(body.get("srs", {}), dict):
        raise RequestError("srs must be an object of SRSOptions fields", field="srs")
    return SRSOptions(**body.get("srs", {}))


def _checked(field: str, fn):
    """Run one body-field decoder, tagging failures with the field name."""
    try:
        return fn()
    except RequestError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise RequestError(f"{field}: {exc}", field=field) from exc


def _parse_body(raw: bytes) -> dict:
    """Decode and shape-check a /solve body (JSON object, known keys)."""
    try:
        body = json.loads(raw or b"{}")
    except json.JSONDecodeError as exc:
        raise RequestError(f"request body is not valid JSON: {exc}", code="bad_json")
    if not isinstance(body, dict):
        raise RequestError("request body must be a JSON object", code="bad_json")
    unknown = sorted(set(body) - _ALLOWED_KEYS)
    if unknown:
        raise RequestError(
            f"unknown field {unknown[0]!r}; allowed fields: {sorted(_ALLOWED_KEYS)}",
            code="unknown_field",
            field=unknown[0],
        )
    return body


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`SolveService`."""

    daemon_threads = True

    def __init__(self, address, service: SolveService):
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self._problems: "OrderedDict[str, object]" = OrderedDict()
        self._problems_lock = make_lock("service.http.problems")

    def problem_for(self, spec: dict):
        """The (cached) problem object for a canonicalized JSON spec."""
        key = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        with self._problems_lock:
            prob = self._problems.get(key)
            if prob is not None:
                self._problems.move_to_end(key)
                return prob
        prob = build_problem(spec)
        with self._problems_lock:
            self._problems[key] = prob
            while len(self._problems) > PROBLEM_CACHE_SIZE:
                self._problems.popitem(last=False)
        return prob


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Translates the JSON wire format to service calls."""

    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        # read per connection; the stdlib ``setup`` applies it to the socket
        self.timeout = READ_TIMEOUT_S
        super().setup()

    # quiet by default; flip for debugging
    def log_message(self, fmt, *args):  # noqa: D102 - stdlib signature
        pass

    def _reply_raw(self, status: int, body: bytes, content_type: str, request_id: str) -> None:
        # Head and body leave in ONE write. ``end_headers()`` flushes the
        # head to the (unbuffered) socket file on its own; a body written
        # after it is a second small segment that Nagle holds back until
        # the client's delayed ACK of the first — ~40 ms on every reply of
        # a kept-alive connection. So the head is composed off the socket.
        sock_file, self.wfile = self.wfile, io.BytesIO()
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.send_header("X-Request-Id", request_id)
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = sock_file
        self.wfile.write(head + body)

    def _reply(self, status: int, payload: dict, request_id: str) -> None:
        self._reply_raw(
            status, json.dumps(payload).encode(), "application/json", request_id
        )

    def _reply_error(
        self,
        status: int,
        message: str,
        code: str,
        request_id: str,
        field: str | None = None,
    ) -> None:
        payload = {"error": message, "code": code, "request_id": request_id}
        if field is not None:
            payload["field"] = field
        log_event(
            "http_reject",
            request_id=request_id,
            status=status,
            code=code,
            field=field,
            error=message,
        )
        self._reply(status, payload, request_id)

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        request_id = uuid.uuid4().hex[:12]
        parsed = urlparse(self.path)
        path = parsed.path
        if path == "/healthz":
            self._reply(200, {"ok": True}, request_id)
        elif path == "/stats":
            self._reply(200, self.server.service.stats().to_dict(), request_id)
        elif path == "/debug":
            self._reply_raw(
                200,
                render_debug(self.server.service).encode(),
                "text/html; charset=utf-8",
                request_id,
            )
        elif path == "/debug/profile":
            fmt = parse_qs(parsed.query).get("format", ["speedscope"])[0]
            if fmt == "speedscope":
                self._reply_raw(
                    200,
                    json.dumps(profile.speedscope()).encode(),
                    "application/json",
                    request_id,
                )
            elif fmt == "folded":
                self._reply_raw(
                    200,
                    profile.folded().encode(),
                    "text/plain; charset=utf-8",
                    request_id,
                )
            else:
                self._reply_error(
                    400,
                    f"unknown profile format {fmt!r}; expected speedscope or folded",
                    "bad_field",
                    request_id,
                    "format",
                )
        elif path == "/metrics":
            # residency gauges are point-in-time; refresh them per scrape
            stats = self.server.service.stats()
            _CACHE_BYTES.set(stats.bytes_resident)
            _CACHE_ENTRIES.set(stats.entries_resident)
            self._reply_raw(
                200,
                (render_prometheus()
                 + render_prometheus(self.server.service.metrics)).encode(),
                "text/plain; version=0.0.4; charset=utf-8",
                request_id,
            )
        else:
            self._reply_error(404, f"unknown path {path}", "not_found", request_id)

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        request_id = uuid.uuid4().hex[:12]
        if self.path != "/solve":
            self._reply_error(404, f"unknown path {self.path}", "not_found", request_id)
            return
        try:
            length = self.headers.get("Content-Length", "0").strip()
            if not (length.isascii() and length.isdigit()):
                # where the body ends is unknown: reply, then hang up
                self.close_connection = True
                raise RequestError(
                    f"Content-Length must be a non-negative integer, got {length!r}",
                    field="Content-Length",
                )
            body = _parse_body(self.rfile.read(int(length)))
            rid = body.get("request_id")
            if rid is not None:
                if not isinstance(rid, str) or not rid:
                    raise RequestError(
                        "request_id must be a non-empty string", field="request_id"
                    )
                request_id = rid
            problem = _checked(
                "problem", lambda: self.server.problem_for(body.get("problem", {}))
            )
            rhs = _checked("rhs", lambda: _decode_rhs(problem, body.get("rhs")))
            srs = _checked("srs", lambda: _decode_srs(body))
            config = _checked("config", lambda: SolveConfig(
                srs=srs, **{k: body[k] for k in _CONFIG_KEYS if k in body}
            ))
        except RequestError as exc:
            self._reply_error(400, str(exc), exc.code, request_id, exc.field)
            return
        try:
            report = self.server.service.solve(
                problem, rhs, config, request_id=request_id
            )
        except ServiceOverloadedError as exc:
            # admission control refused the request; a structured 429
            # tells well-behaved clients to back off and retry
            self._reply_error(429, str(exc), "overloaded", request_id)
            return
        except (ValueError, TypeError) as exc:
            # request-shaped failures (bad rhs length, method/problem
            # incompatibility) are the client's fault
            self._reply_error(
                400, f"{type(exc).__name__}: {exc}", "solver_error", request_id
            )
            return
        except Exception as exc:  # noqa: BLE001 - wire boundary
            self._reply_error(
                500, f"{type(exc).__name__}: {exc}", "internal", request_id
            )
            return
        payload = {
            "request_id": request_id,
            "report": report.to_dict(include_relres=bool(body.get("relres", True))),
        }
        if body.get("return_x", False):
            payload["x"] = _encode_x(report.x)
        self._reply(200, payload, request_id)


def make_server(
    service: SolveService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind (but do not start) the JSON endpoint; port 0 picks a free one."""
    return ServiceHTTPServer((host, port), service)


def serve_forever(service: SolveService, host: str = "127.0.0.1", port: int = 8000) -> None:
    """Blocking convenience runner (Ctrl-C to stop)."""
    with make_server(service, host, port) as server:
        server.serve_forever()
