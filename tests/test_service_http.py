"""HTTP front tests: the JSON wire format over a live ThreadingHTTPServer."""

import json
import os
import socket
import threading
import xml.etree.ElementTree as ET

import http.client

import numpy as np
import pytest

import repro
from repro.service import SolveService
from repro.service import http as http_front
from repro.service.http import ServiceRequestHandler, build_problem, make_server
from repro.vmpi import process_backend_available

XHTML = {"x": "http://www.w3.org/1999/xhtml"}


@pytest.fixture(scope="module")
def server():
    service = SolveService(workers=4, batch_window=0.0)
    srv = make_server(service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    service.close()
    thread.join(timeout=10)


def _request_full(server, method, path, body=None, raw=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=120)
    try:
        payload = raw if raw is not None else (
            json.dumps(body) if body is not None else None
        )
        conn.request(method, path, payload, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def _request(server, method, path, body=None):
    status, _headers, data = _request_full(server, method, path, body)
    return status, json.loads(data)


def test_healthz(server):
    status, payload = _request(server, "GET", "/healthz")
    assert status == 200 and payload == {"ok": True}


def test_keepalive_replies_leave_in_one_write(server, monkeypatch):
    """Two requests on one connection both succeed, and each reply
    reaches the socket as a single write: a head flushed apart from its
    body is two small segments, and the second waits out the client's
    delayed ACK on a kept-alive connection."""
    writes = []

    class Recording:
        def __init__(self, raw):
            self._raw = raw

        def write(self, data):
            writes.append(bytes(data))
            return self._raw.write(data)

        def __getattr__(self, name):
            return getattr(self._raw, name)

    plain_setup = ServiceRequestHandler.setup

    def recording_setup(handler):
        plain_setup(handler)
        handler.wfile = Recording(handler.wfile)

    monkeypatch.setattr(ServiceRequestHandler, "setup", recording_setup)
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=120)
    try:
        conn.request("GET", "/healthz")
        first = conn.getresponse()
        assert first.status == 200 and json.loads(first.read()) == {"ok": True}
        body = {"problem": {"type": "laplace_volume", "m": 16}, "rhs": {"seed": 1}}
        conn.request("POST", "/solve", json.dumps(body), {"Content-Type": "application/json"})
        second = conn.getresponse()
        solved = json.loads(second.read())
        assert second.status == 200 and solved["report"]["relres"] < 1e-2
    finally:
        conn.close()
    assert len(writes) == 2  # one per reply, on the one connection
    for reply in writes:
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200") and json.loads(payload)


def test_solve_roundtrip_matches_facade(server):
    body = {
        "problem": {"type": "laplace_volume", "m": 16},
        "rhs": {"seed": 3},
        "return_x": True,
    }
    status, payload = _request(server, "POST", "/solve", body)
    assert status == 200
    report = payload["report"]
    assert report["method"] == "direct" and report["converged"]
    prob = repro.LaplaceVolumeProblem(16)
    ref = repro.solve(prob, prob.random_rhs(3))
    assert np.allclose(np.asarray(payload["x"]), ref.x, rtol=1e-12, atol=0)
    assert report["relres"] == pytest.approx(ref.relres, rel=1e-6)


def test_repeated_requests_hit_the_cache(server):
    body = {"problem": {"type": "laplace_volume", "m": 16}, "rhs": {"seed": 0}}
    _request(server, "POST", "/solve", body)
    status, payload = _request(server, "POST", "/solve", body)
    assert status == 200
    assert payload["report"]["cache_hit"] is True
    status, stats = _request(server, "GET", "/stats")
    assert status == 200
    assert stats["factorizations"] >= 1
    assert stats["cache_hits"] >= 1
    assert 0 < stats["hit_rate"] <= 1


def test_complex_problem_and_pgmres(server):
    body = {
        "problem": {"type": "scattering", "m": 16, "kappa": 9.0},
        "method": "pgmres",
        "tol": 1e-10,
        "return_x": True,
    }
    status, payload = _request(server, "POST", "/solve", body)
    assert status == 200
    assert payload["report"]["iterations"] > 0
    x = payload["x"]
    assert "re" in x and "im" in x  # complex encoding
    assert len(x["re"]) == 256


def test_explicit_rhs_values(server):
    n = 256
    values = [float(i) / n for i in range(n)]
    body = {
        "problem": {"type": "laplace_volume", "m": 16},
        "rhs": {"values": values},
        "return_x": True,
    }
    status, payload = _request(server, "POST", "/solve", body)
    assert status == 200
    prob = repro.LaplaceVolumeProblem(16)
    ref = repro.solve(prob, np.asarray(values))
    assert np.allclose(np.asarray(payload["x"]), ref.x, rtol=1e-12, atol=0)


def test_bie_problem_spec(server):
    body = {
        "problem": {
            "type": "interior_dirichlet",
            "n": 256,
            "curve": {"type": "star", "amplitude": 0.3, "arms": 5},
        },
        "srs": {"tol": 1e-10},
    }
    status, payload = _request(server, "POST", "/solve", body)
    assert status == 200
    assert payload["report"]["relres"] < 1e-6


def test_bad_requests(server):
    status, payload = _request(server, "POST", "/solve", {"problem": {"type": "nope"}})
    assert status == 400 and "unknown problem type" in payload["error"]
    status, payload = _request(server, "POST", "/solve", {"problem": {}})
    assert status == 400
    status, payload = _request(
        server, "POST", "/solve", {"problem": {"type": "laplace_volume", "m": 16}, "method": "bogus"}
    )
    assert status == 400 and "unknown solve method" in payload["error"]
    status, _ = _request(server, "GET", "/nope")
    assert status == 404
    status, _ = _request(server, "POST", "/nope", {})
    assert status == 404


def test_request_shaped_solver_errors_map_to_400(server):
    # pcg on a non-symmetric problem: rejected by the service's
    # compatibility check — the client's fault, so a 400
    body = {
        "problem": {"type": "scattering", "m": 16, "kappa": 9.0},
        "method": "pcg",
    }
    status, payload = _request(server, "POST", "/solve", body)
    assert status == 400 and "symmetric" in payload["error"]
    # wrong rhs length: also a client error
    body = {
        "problem": {"type": "laplace_volume", "m": 16},
        "rhs": {"values": [1.0, 2.0, 3.0]},
    }
    status, payload = _request(server, "POST", "/solve", body)
    assert status == 400 and "rows" in payload["error"]


def test_unknown_field_is_rejected_with_field_name(server):
    body = {"problem": {"type": "laplace_volume", "m": 16}, "bogus_knob": 1}
    status, payload = _request(server, "POST", "/solve", body)
    assert status == 400
    assert payload["code"] == "unknown_field"
    assert payload["field"] == "bogus_knob"
    assert "bogus_knob" in payload["error"]
    assert payload["request_id"]


def test_auto_factor_mode_is_rejected_as_a_bad_field(server):
    # a mode the solver does not have (an "auto" sweep, a sketched ID,
    # the Table VI comparator as an execution) is a bad config, not a
    # silent fallback
    for name, config, field in (
        ("factor_mode", {"srs": {"factor_mode": "auto"}}, "srs"),
        ("id_method", {"srs": {"id_method": "randomized"}}, "srs"),
        ("execution", {"execution": "shared"}, "config"),
    ):
        body = {"problem": {"type": "laplace_volume", "m": 16}, **config}
        status, payload = _request(server, "POST", "/solve", body)
        assert status == 400, name
        assert payload["code"] == "bad_field" and payload["field"] == field
        assert name in payload["error"]


def test_direct_request_carries_health_and_is_counted(server):
    """The coalesced direct path builds its report where the facade
    does: same health rows, same ``repro_solve_total`` bump."""
    from repro.obs import REGISTRY

    solves = REGISTRY.counter("repro_solve_total", labelnames=("method", "execution"))
    before = solves.value(method="direct", execution="sequential")
    body = {"problem": {"type": "laplace_volume", "m": 16}, "rhs": {"seed": 5}}
    status, payload = _request(server, "POST", "/solve", body)
    assert status == 200
    assert solves.value(method="direct", execution="sequential") == before + 1
    prob = repro.LaplaceVolumeProblem(16)
    ref = repro.solve(prob, prob.random_rhs(5))
    assert payload["report"]["health"] == ref.health.to_dict()
    assert payload["report"]["health"]["levels"]


def test_malformed_json_body(server):
    status, _headers, data = _request_full(
        server, "POST", "/solve", raw="{not json"
    )
    payload = json.loads(data)
    assert status == 400 and payload["code"] == "bad_json"


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_bad_content_length_is_a_structured_400(server, length):
    """A Content-Length that is no byte count gets a 400 naming the
    header, then the server hangs up (it cannot tell where the body
    ends). The socket timeout only keeps a regression from hanging the
    suite."""
    body = b'{"problem": {"type": "laplace_volume", "m": 16}}'
    request = (
        b"POST /solve HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {length}\r\n\r\n".encode()
        + body
    )
    with socket.create_connection(
        ("127.0.0.1", server.server_address[1]), timeout=60
    ) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), reply
    doc = json.loads(payload)
    assert doc["code"] == "bad_field" and doc["field"] == "Content-Length"
    assert length in doc["error"] and doc["request_id"]


def test_short_body_is_dropped_after_the_read_timeout(server, monkeypatch):
    """A body shorter than its Content-Length holds its handler thread
    only for ``READ_TIMEOUT_S``: then the server closes the connection
    without a reply, and a fresh connection is served. The socket
    timeout only keeps a regression from hanging the suite."""
    monkeypatch.setattr(http_front, "READ_TIMEOUT_S", 0.5)
    request = (
        b"POST /solve HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n{}"
    )
    with socket.create_connection(
        ("127.0.0.1", server.server_address[1]), timeout=60
    ) as sock:
        sock.sendall(request)
        assert sock.recv(65536) == b""
    status, payload = _request(server, "GET", "/healthz")
    assert status == 200 and payload == {"ok": True}


def test_bad_rhs_shape_names_the_field(server):
    body = {
        "problem": {"type": "laplace_volume", "m": 16},
        "rhs": {"values": "not-a-list"},
    }
    status, payload = _request(server, "POST", "/solve", body)
    assert status == 400
    assert payload["code"] == "bad_field" and payload["field"] == "rhs"


def _strict_json(data: bytes):
    """``json.loads`` that refuses ``NaN`` / ``Infinity`` like strict parsers."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(data, parse_constant=reject)


def test_zero_rhs_reply_is_strict_json(server):
    body = {"problem": {"type": "laplace_volume", "m": 16}, "rhs": {"values": [0.0] * 256}}
    status, _headers, data = _request_full(server, "POST", "/solve", body)
    payload = _strict_json(data)
    assert status == 200
    assert payload["report"]["relres"] == 0.0


def test_empty_rhs_block_is_a_bad_field(server):
    body = {"problem": {"type": "laplace_volume", "m": 16}, "rhs": {"seed": 1, "nrhs": 0}}
    status, _headers, data = _request_full(server, "POST", "/solve", body)
    payload = _strict_json(data)
    assert status == 400
    assert payload["code"] == "bad_field" and payload["field"] == "rhs"
    assert "nrhs" in payload["error"]


def test_operator_is_an_unknown_field(server):
    # a problem has one forward operator; a body cannot pick another
    body = {"problem": {"type": "laplace_volume", "m": 16}, "operator": "dense"}
    status, payload = _request(server, "POST", "/solve", body)
    assert status == 400
    assert payload["code"] == "unknown_field" and payload["field"] == "operator"


def test_proxy_oversampling_is_a_bad_field(server):
    body = {"problem": {"type": "laplace_volume", "m": 16}, "srs": {"proxy_oversampling": 3.0}}
    status, payload = _request(server, "POST", "/solve", body)
    assert status == 400
    assert payload["code"] == "bad_field" and payload["field"] == "srs"
    assert "proxy_oversampling" in payload["error"]


def test_request_id_is_echoed_everywhere(server):
    body = {
        "problem": {"type": "laplace_volume", "m": 16},
        "rhs": {"seed": 5},
        "request_id": "client-pick-1",
    }
    status, headers, data = _request_full(server, "POST", "/solve", body)
    payload = json.loads(data)
    assert status == 200
    assert headers["X-Request-Id"] == "client-pick-1"
    assert payload["request_id"] == "client-pick-1"
    assert payload["report"]["request_id"] == "client-pick-1"
    assert {"t_queue", "t_setup", "t_solve"} <= set(payload["report"])


def test_errors_carry_generated_request_id(server):
    status, headers, data = _request_full(server, "GET", "/nope")
    payload = json.loads(data)
    assert status == 404 and payload["code"] == "not_found"
    assert payload["request_id"] == headers["X-Request-Id"]


def test_metrics_endpoint_is_parseable_prometheus(server):
    from repro.obs import parse_prometheus

    # exercise the service at least once so counters exist
    _request(
        server, "POST", "/solve",
        {"problem": {"type": "laplace_volume", "m": 16}, "rhs": {"seed": 9}},
    )
    status, headers, data = _request_full(server, "GET", "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    assert "version=0.0.4" in headers["Content-Type"]
    samples = parse_prometheus(data.decode())
    events = {
        labels["kind"]: v
        for labels, v in samples["repro_service_events_total"]
    }
    assert events["requests"] >= 1 and events["completed"] >= 1
    # the served count is the one /stats reports: one record, two views
    _, stats = _request(server, "GET", "/stats")
    assert events["completed"] == stats["completed"]
    assert "repro_service_cache_bytes" in samples
    assert "repro_service_cache_entries" in samples


def test_build_problem_cache_reuses_instances(server):
    spec = {"type": "laplace_volume", "m": 16}
    assert server.problem_for(dict(spec)) is server.problem_for(dict(spec))
    fresh = build_problem(spec)
    assert fresh is not server.problem_for(spec)
    assert fresh.fingerprint() == server.problem_for(spec).fingerprint()


def test_debug_dashboard_is_strict_xhtml(server):
    # prime with one solve so the health tables have rows
    status, _ = _request(
        server, "POST", "/solve",
        {"problem": {"type": "laplace_volume", "m": 16}, "rhs": {"seed": 11}},
    )
    assert status == 200
    status, headers, data = _request_full(server, "GET", "/debug")
    assert status == 200
    assert headers["Content-Type"].startswith("text/html")
    root = ET.fromstring(data.decode("utf-8"))
    assert root.tag == "{http://www.w3.org/1999/xhtml}html"
    ids = {el.get("id") for el in root.iter() if el.get("id")}
    assert {
        "service-stats", "health-levels", "health-krylov", "resources",
        "recent-requests", "profiler", "profiler-tracks", "tracer",
    } <= ids
    (levels,) = [el for el in root.iter() if el.get("id") == "health-levels"]
    assert levels.tag == "{http://www.w3.org/1999/xhtml}table"
    assert levels.findall("./x:tbody/x:tr", XHTML)  # non-empty health table
    (recent,) = [el for el in root.iter() if el.get("id") == "recent-requests"]
    assert recent.findall("./x:tbody/x:tr", XHTML)


def _debug_table(server, table_id):
    """``/debug``'s table ``table_id`` as one ``{header: cell}`` per row."""
    status, _headers, data = _request_full(server, "GET", "/debug")
    assert status == 200
    root = ET.fromstring(data.decode("utf-8"))
    (table,) = [el for el in root.iter() if el.get("id") == table_id]
    assert table.tag == "{http://www.w3.org/1999/xhtml}table", table_id
    keys = [th.text for th in table.findall("./x:thead/x:tr/x:th", XHTML)]
    return [
        dict(zip(keys, (td.text for td in tr.findall("./x:td", XHTML))))
        for tr in table.findall("./x:tbody/x:tr", XHTML)
    ]


@pytest.mark.skipif(
    not process_backend_available(),
    reason="multiprocessing.shared_memory unavailable on this platform",
)
def test_debug_resources_need_no_knob(server, monkeypatch):
    """The resources section is read on every render: RSS always, and
    one row per rank pool once a process solve has started one."""
    for name in [n for n in os.environ if n.startswith("REPRO_OBS")]:
        monkeypatch.delenv(name)
    rows = _debug_table(server, "resources")
    rss = {row["key"]: row["value"] for row in rows}["rss_bytes"]
    assert int(rss) > 0
    status, _ = _request(
        server, "POST", "/solve",
        {"problem": {"type": "laplace_volume", "m": 16}, "rhs": {"seed": 5},
         "execution": "process", "ranks": 4},
    )
    assert status == 200
    pools = _debug_table(server, "resources-pools")
    assert any(
        row["nranks"] == "4" and row["alive"] == row["workers"] == "4"
        for row in pools
    ), pools


def test_debug_profile_export_routes(server):
    status, headers, data = _request_full(
        server, "GET", "/debug/profile?format=speedscope"
    )
    assert status == 200
    assert headers["Content-Type"].startswith("application/json")
    doc = json.loads(data)
    assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
    assert "profiles" in doc and "frames" in doc["shared"]

    status, headers, data = _request_full(server, "GET", "/debug/profile")
    assert status == 200  # speedscope is the default format
    assert headers["Content-Type"].startswith("application/json")

    status, headers, data = _request_full(
        server, "GET", "/debug/profile?format=folded"
    )
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")

    status, payload = _request(server, "GET", "/debug/profile?format=bogus")
    assert status == 400 and payload["field"] == "format"
