"""Resident-store tests: the three tiers and their cleanup contracts.

The acceptance contract of the store subsystem:

* **tier 1** — pooled repeated solves ship O(rhs) dispatch payloads,
  reseed transparently across pool respawns, and eviction invalidates
  the worker-side registry;
* **tier 2** — a second *process* attaches a published entry zero-copy
  and solves bitwise-identically without refactoring;
* **tier 3** — a fresh interpreter warm-starts from a spill file, and
  corrupted or version-mismatched files are rejected and removed;
* **cleanliness** — after release, ``/dev/shm`` and the store directory
  hold nothing but the intended warm-start spill files.
"""

import glob
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.apps import LaplaceVolumeProblem
from repro.service import ServiceConfig, ServiceOverloadedError, SolveService
from repro.store import FactorizationStore
from repro.store.disk import (
    STORE_FORMAT,
    header_bytes,
    key_digest,
    load_spill,
    read_header,
    spill_entry,
    write_atomic,
)
from repro.vmpi import process_backend_available

needs_process = pytest.mark.skipif(
    not process_backend_available(),
    reason="multiprocessing.shared_memory unavailable on this platform",
)


def _shm_blocks() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def _residue(root) -> list:
    """Store files other than the intended warm-start spills."""
    return [
        name
        for name in os.listdir(root)
        if not name.endswith(".spill")
    ]


def _rewrite_header(path, **fields) -> None:
    """Rewrite a store file's header with ``fields`` changed, its body
    kept byte for byte (the digest in the header is kept too)."""
    with open(path, "rb") as fh:
        header = read_header(fh)
        body = fh.read()
    with open(path, "wb") as fh:
        fh.write(header_bytes({**header, **fields}))
        fh.write(body)


# ----------------------------------------------------------------------
# tier 3: spill files
# ----------------------------------------------------------------------
def test_spill_roundtrip_bitwise(tmp_path):
    path = str(tmp_path / "entry.spill")
    key = ("fingerprint", ("direct", 1e-10))
    fact = {"lu": np.arange(1000, dtype=np.float64), "piv": np.arange(10)}
    spill_entry(path, key, fact)
    loaded, reason = load_spill(path, key)
    assert reason is None
    assert np.array_equal(loaded["lu"], fact["lu"])
    assert np.array_equal(loaded["piv"], fact["piv"])


def test_spill_rejects_corruption(tmp_path):
    path = str(tmp_path / "entry.spill")
    key = ("fp", "setup")
    spill_entry(path, key, np.ones(500))
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0xFF  # flip a payload bit
    open(path, "wb").write(bytes(raw))
    loaded, reason = load_spill(path, key)
    assert loaded is None
    assert reason is not None
    assert not os.path.exists(path)  # poisoned file removed


def test_spill_rejects_truncation(tmp_path):
    path = str(tmp_path / "entry.spill")
    spill_entry(path, "k", np.ones(500))
    open(path, "wb").write(open(path, "rb").read()[:64])
    loaded, reason = load_spill(path, "k")
    assert loaded is None and reason == "malformed"
    assert not os.path.exists(path)


def test_spill_rejects_format_and_version_mismatch(tmp_path, monkeypatch):
    import repro.store.disk as disk

    key = "some-key"
    # what a format-1 spill carries: every SRSFactorization pickled a
    # TimingBreakdown, a class this tree no longer has. Each mismatch
    # must be caught before the payload is unpickled ("payload" would
    # mean it was tried).
    stale = b"\x80\x04crepro.util.timing\nTimingBreakdown\n."
    with pytest.raises(ModuleNotFoundError):
        pickle.loads(stale)
    monkeypatch.setattr(disk, "dump_out_of_band", lambda obj: (stale, []))
    for field, value, expect in (
        ("format", STORE_FORMAT + 1, "format"),
        ("format", STORE_FORMAT - 1, "format"),
        ("numpy", "0.0.0", "version"),
        ("key", repr("other-key"), "key"),
    ):
        path = str(tmp_path / f"{field}-{value}.spill")
        spill_entry(path, key, None)  # a file whose stream is `stale`
        _rewrite_header(path, **{field: value})
        loaded, reason = load_spill(path, key)
        assert loaded is None and reason == expect
        assert not os.path.exists(path)


def test_spill_wrong_key_digest_collision(tmp_path):
    # same file asked for a different key: the key check rejects it
    path = str(tmp_path / "entry.spill")
    spill_entry(path, ("fp", 1), np.ones(8))
    loaded, reason = load_spill(path, ("fp", 2))
    assert loaded is None and reason == "key"


#: bytes before the pickled header: the magic and the header length
_PREFIX_SIZE = 16


def _regions(path):
    """Byte offsets of a store file's parts: ``(body start, header,
    stream span, array spans, alignment gaps)``."""
    with open(path, "rb") as fh:
        header = read_header(fh)
        start = fh.tell()
    stream = (start, start + header["stream"])
    arrays = [(start + o, start + o + n) for o, n in header["spans"]]
    ends = [stream[1]] + [hi for _, hi in arrays]
    starts = [lo for lo, _ in arrays] + [start + header["body"]]
    gaps = [(hi, lo) for hi, lo in zip(ends, starts) if lo > hi]
    return start, header, stream, arrays, gaps


def _flip(raw: bytes, at: int, mask: int = 0xFF) -> bytes:
    out = bytearray(raw)
    out[at] ^= mask
    return bytes(out)


def test_spill_corruption_matrix(tmp_path):
    """One corruption at a time of a real factorization's spill file:
    each is a miss with the file's reason, the file is removed, and the
    store counts the rejection once under that reason."""
    from repro.obs import REGISTRY

    invalid = REGISTRY.counter("repro_store_invalid_files_total", labelnames=("reason",))
    prob = LaplaceVolumeProblem(m=16)
    fact = repro.srs_factor(prob.kernel, prob.factor_tree)
    store = FactorizationStore(str(tmp_path), shared=False, spill=True)
    key = ("fp", "setup")
    path = store._spill_path(key_digest(key))
    assert store.spill(key, fact)
    raw = open(path, "rb").read()
    start, header, stream, arrays, gaps = _regions(path)
    assert arrays and gaps
    digest_at = raw.index(header["sha256"].encode(), 0, start)

    def mid(span):
        return (span[0] + span[1]) // 2

    cases = {
        "magic": (_flip(raw, 0), "malformed"),
        "header pickle": (_flip(raw, _PREFIX_SIZE), "malformed"),
        "header digest": (_flip(raw, digest_at + 10, 0x01), "checksum"),
        "stream": (_flip(raw, mid(stream)), "checksum"),
        "array": (_flip(raw, mid(arrays[len(arrays) // 2])), "checksum"),
        "alignment gap": (_flip(raw, gaps[0][0]), "checksum"),
        "truncated body": (raw[:-1], "malformed"),
        "trailing byte": (raw + b"\0", "malformed"),
    }
    for case, (data, expect) in cases.items():
        open(path, "wb").write(data)
        assert load_spill(path, key) == (None, expect), case
        assert not os.path.exists(path), case
        open(path, "wb").write(data)
        before = {r: invalid.value(reason=r) for r in ("malformed", "checksum")}
        assert store.load(key) is None, case
        after = {r: invalid.value(reason=r) for r in before}
        assert after == {**before, expect: before[expect] + 1}, case
        assert not os.path.exists(path), case
    # the untouched file still loads
    open(path, "wb").write(raw)
    assert store.load(key)[1] == "disk"


def test_spill_header_checked_before_body(tmp_path):
    """A file naming another key, format or numpy version is refused for
    that reason even when its body is truncated too: the body is never
    read (let alone hashed) for a file the header already rules out."""
    key = ("fp", "setup")
    for field, value, expect in (
        ("key", repr(("fp", "other")), "key"),
        ("format", STORE_FORMAT - 1, "format"),
        ("numpy", "0.0.0", "version"),
    ):
        path = str(tmp_path / f"{field}.spill")
        spill_entry(path, key, {"a": np.arange(4096, dtype=np.float64)})
        _rewrite_header(path, **{field: value})
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) - 1000])
        assert load_spill(path, key) == (None, expect)
        assert not os.path.exists(path)


def test_every_flipped_header_byte_is_refused_or_harmless(tmp_path):
    """No single flipped header byte yields a wrong object: the file is
    refused with a reason and removed, or — a byte pickle does not read
    back, such as a frame length — it loads equal to what was spilled."""
    path = str(tmp_path / "entry.spill")
    key = ("fp", "setup")
    obj = {"a": np.arange(300, dtype=np.float64), "b": np.arange(7, dtype=np.int32)}
    spill_entry(path, key, obj)
    raw = open(path, "rb").read()
    start = _regions(path)[0]
    for at in range(start):
        open(path, "wb").write(_flip(raw, at))
        loaded, reason = load_spill(path, key)
        if loaded is None:
            assert reason in ("malformed", "checksum", "key", "format", "version"), at
            assert not os.path.exists(path), at
        else:
            assert reason is None and loaded.keys() == obj.keys(), at
            assert all(np.array_equal(loaded[k], obj[k]) for k in obj), at


def test_write_atomic_temp_file_is_per_call(tmp_path):
    """Two writers of one path never share a temp file (the last to
    finish wins whole), and a failing write leaves no temp file."""
    path = str(tmp_path / "entry.spill")
    with write_atomic(path) as outer:
        outer.write(b"outer")
        with write_atomic(path) as inner:
            inner.write(b"inner")
            assert len(os.listdir(tmp_path)) == 2  # two distinct temp files
        assert open(path, "rb").read() == b"inner"
    assert open(path, "rb").read() == b"outer"
    assert os.listdir(tmp_path) == ["entry.spill"]

    with pytest.raises(RuntimeError):
        with write_atomic(path) as fh:
            fh.write(b"half")
            raise RuntimeError("disk full")
    assert os.listdir(tmp_path) == ["entry.spill"]
    assert open(path, "rb").read() == b"outer"


# ----------------------------------------------------------------------
# the store facade: fetch_or_build, single-flight lockfile, spill tier
# ----------------------------------------------------------------------
def test_fetch_or_build_spills_and_warm_loads(tmp_path):
    root = str(tmp_path)
    builds = []

    def builder():
        builds.append(1)
        return {"x": np.arange(64, dtype=float)}

    a = FactorizationStore(root, shared=False, spill=True)
    fact, tier = a.fetch_or_build(("fp", "s"), builder)
    assert tier is None and len(builds) == 1
    assert os.path.exists(a._spill_path(key_digest(("fp", "s"))))

    # a second store (fresh process stand-in) loads the spill instead
    b = FactorizationStore(root, shared=False, spill=True)
    fact2, tier2 = b.fetch_or_build(("fp", "s"), builder)
    assert tier2 == "disk" and len(builds) == 1
    assert np.array_equal(fact2["x"], fact["x"])
    assert _residue(root) == []  # no locks/markers left behind


def test_lockfile_dead_owner_is_reaped(tmp_path):
    root = str(tmp_path)
    store = FactorizationStore(root, shared=False, spill=False)
    digest = key_digest("k")
    # a lockfile owned by a dead pid must not block the build forever
    with open(store._lock_path(digest), "w") as fh:
        fh.write("999999999")
    fact, tier = store.fetch_or_build("k", lambda: "built")
    assert fact == "built" and tier is None
    assert not os.path.exists(store._lock_path(digest))


def test_lock_timeout_builds_privately(tmp_path):
    root = str(tmp_path)
    store = FactorizationStore(root, shared=False, spill=False, lock_timeout=0.0)
    digest = key_digest("k")
    with open(store._lock_path(digest), "w") as fh:
        fh.write(str(os.getpid()))  # a live "peer" that never finishes
    fact, tier = store.fetch_or_build("k", lambda: "local")
    assert fact == "local" and tier is None
    os.remove(store._lock_path(digest))


# ----------------------------------------------------------------------
# tier 2: shared entries (same machine, refcounted /dev/shm blocks)
# ----------------------------------------------------------------------
@needs_process
def test_shared_publish_release_leaves_shm_as_found(tmp_path):
    root = str(tmp_path)
    before = _shm_blocks()
    store = FactorizationStore(root, shared=True, spill=False)
    fact, tier = store.fetch_or_build(
        "k", lambda: {"a": np.arange(4096, dtype=np.float64)}
    )
    assert tier is None
    assert store.shared_published("k") and store.holds_shared("k")
    assert store.shared_bytes() == 4096 * 8
    # a publish is one segment, however few bytes, live while held
    assert len(_shm_blocks() - before) == 1
    store.release("k")
    assert not store.holds_shared("k") and not store.shared_published("k")
    assert _shm_blocks() == before
    assert _residue(root) == []


@needs_process
def test_published_factorization_is_one_segment(tmp_path):
    """Publishing a real factorization adds exactly one /dev/shm entry
    however many arrays it holds; a second process maps it with every
    array bitwise equal, and an old-format sidecar is refused."""
    import hashlib

    from repro.store.shared import sidecar_path

    def digest_of(fact):
        h = hashlib.blake2b(digest_size=16)
        for rec in fact.records:
            for arr in (rec.T, rec.lu._lu, rec.lu._piv, rec.e_cr, rec.g_rc):
                h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    root = str(tmp_path / "store")
    prob = LaplaceVolumeProblem(m=16)
    before = _shm_blocks()
    store = FactorizationStore(root, shared=True, spill=False)
    fact, tier = store.fetch_or_build(
        "k", lambda: repro.srs_factor(prob.kernel, prob.factor_tree)
    )
    assert tier is None and len(fact.records) > 10
    assert len(_shm_blocks() - before) == 1

    code = textwrap.dedent(
        f"""
        import hashlib
        import numpy as np
        from repro.store import FactorizationStore

        store = FactorizationStore({root!r}, shared=True, spill=False)
        fact, tier = store.load("k")
        assert tier == "shared", tier
        assert not fact.records[0].T.flags.owndata  # mapped, not copied
        h = hashlib.blake2b(digest_size=16)
        for rec in fact.records:
            for arr in (rec.T, rec.lu._lu, rec.lu._piv, rec.e_cr, rec.g_rc):
                h.update(np.ascontiguousarray(arr).tobytes())
        print(h.hexdigest())
        store.close()
        """
    )
    cwd = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(cwd, "src")},
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == digest_of(fact)
    # the child's one mapping closed quietly when its arrays died
    assert "BufferError" not in proc.stderr and "Exception ignored" not in proc.stderr

    # a sidecar written under the previous format number is rejected as
    # such — never unpickled into classes that no longer exist
    path = sidecar_path(root, key_digest("k"))
    _rewrite_header(path, format=STORE_FORMAT - 1)
    assert FactorizationStore(root, shared=True, spill=False).load("k") is None
    assert not os.path.exists(path)

    store.close()
    assert _shm_blocks() == before


def _record_arrays(fact) -> list:
    """Every non-empty array a factorization's records hold."""
    records = (
        [rec for w in fact.workers for rec in w.records]
        if hasattr(fact, "workers") else fact.records
    )
    arrays = []
    for rec in records:
        for arr in (
            rec.redundant, rec.skeleton, rec.cluster, rec.T,
            rec.lu._lu, rec.lu._piv, rec.lu._perm, rec.e_cr, rec.g_rc,
        ):
            if arr.size:
                arrays.append(arr)
    return arrays


def _root(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


@needs_process
@pytest.mark.parametrize(
    "execution, problem",
    [
        pytest.param(e, p, id=e if p == "laplace" else f"{e}-{p}")
        for p in ("laplace", "scattering")
        for e in ("sequential", "thread", "process")
    ],
)
def test_round_trip_through_every_tier_solves_bitwise(tmp_path, execution, problem):
    """Spilled, reloaded, published and attached, a factorization solves
    bitwise like the in-memory one and reports the same memory — the
    cached ``memory_bytes`` equals a fresh walk at every stop. Every
    array comes back with its dtype, shape and order, aligned and
    writable, as a view of the one buffer its tier read or mapped."""
    prob = (
        LaplaceVolumeProblem(m=16) if problem == "laplace"
        else repro.ScatteringProblem(16, 9.0)
    )
    ranks = {} if execution == "sequential" else {"ranks": 4}
    fact = repro.solve(
        prob, prob.random_rhs(0), method="direct", execution=execution, **ranks
    ).factorization
    rhs = [prob.random_rhs(1), prob.random_rhs(2, 3)]
    want = [fact.solve(b) for b in rhs]
    wanted = _record_arrays(fact)

    def check(other, zero_copy=True):
        records = (
            [rec for w in other.workers for rec in w.records]
            if execution != "sequential" else other.records
        )
        assert other.memory_bytes() == sum(rec.memory_bytes() for rec in records)
        assert other.memory_bytes() == fact.memory_bytes()
        for b, x in zip(rhs, want):
            assert np.array_equal(other.solve(b), x)
        if zero_copy:
            got = _record_arrays(other)
            assert len(got) == len(wanted)
            for a, w in zip(got, wanted):
                assert (a.dtype, a.shape) == (w.dtype, w.shape)
                assert (a.flags.c_contiguous, a.flags.f_contiguous) == (
                    w.flags.c_contiguous, w.flags.f_contiguous
                )
                assert a.flags.aligned and a.flags.writeable and not a.flags.owndata
            assert len({id(_root(a)) for a in got}) == 1

    loaded = []
    try:
        check(fact, zero_copy=False)
        before = _shm_blocks()
        disk = FactorizationStore(str(tmp_path / "disk"), shared=False, spill=True)
        assert disk.spill("k", fact)
        reloaded, tier = disk.load("k")
        loaded.append(reloaded)
        assert tier == "disk"
        check(reloaded)

        shm = FactorizationStore(str(tmp_path / "shm"), shared=True, spill=False)
        _, tier = shm.fetch_or_build("k", lambda: reloaded)  # publishes the build
        assert tier is None and shm.shared_published("k")
        attached, tier = shm.load("k")
        loaded.append(attached)
        assert tier == "shared"
        check(attached)
        del attached
        loaded.pop()
        shm.close()
        assert _shm_blocks() == before
    finally:
        for f in [fact, *loaded]:
            if getattr(f, "resident", None) is not None:
                f.resident.drop()


def test_previous_format_payload_is_a_format_miss(tmp_path):
    """What format 3 pickled — a ``PartialLU`` without its permutation —
    would only fail at its first solve; the header check refuses it
    first, so an old spill is a miss and a rebuild."""
    from repro.linalg import PartialLU

    lu = PartialLU(np.eye(3) + 1.0)
    del lu._perm
    stale = pickle.loads(pickle.dumps(lu))
    with pytest.raises(AttributeError):
        stale.solve_left(np.ones(3))

    path = str(tmp_path / "old.spill")
    spill_entry(path, "k", lu)
    _rewrite_header(path, format=STORE_FORMAT - 1)
    assert load_spill(path, "k") == (None, "format")
    assert not os.path.exists(path)


@needs_process
def test_shared_attach_in_second_process_is_bitwise(tmp_path):
    """A fresh interpreter attaches the published entry, no refactor."""
    root = str(tmp_path / "store")
    prob = LaplaceVolumeProblem(m=16)
    b = prob.random_rhs(0)
    np.save(tmp_path / "rhs.npy", b)
    before = _shm_blocks()

    with SolveService(ServiceConfig(store_dir=root)) as service:
        report = service.solve(prob, b)
        assert service.stats().factorizations == 1
        assert service.store.shared_published(
            next(iter(service.cache._entries))
        )

        code = textwrap.dedent(
            f"""
            import numpy as np
            from repro.apps import LaplaceVolumeProblem
            from repro.service import ServiceConfig, SolveService

            prob = LaplaceVolumeProblem(m=16)
            b = np.load({str(tmp_path / "rhs.npy")!r})
            with SolveService(ServiceConfig(store_dir={root!r})) as service:
                report = service.solve(prob, b)
                stats = service.stats()
                assert stats.factorizations == 0, stats
                assert stats.store_hits_shared == 1, stats
                assert stats.bytes_shared > 0, stats
                np.save({str(tmp_path / "x_child.npy")!r}, report.x)
            """
        )
        cwd = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(cwd, "src")},
            cwd=cwd,
        )
        assert proc.returncode == 0, proc.stderr
        x_child = np.load(tmp_path / "x_child.npy")
        assert np.array_equal(x_child, report.x)  # bitwise, not approx

    # parent was the last holder: blocks unlinked, only spills remain
    assert _shm_blocks() == before
    assert _residue(root) == []


_FOREIGN = """
import hashlib, sys
import numpy as np
from repro.store import FactorizationStore

def digest(fact):
    return hashlib.blake2b(np.ascontiguousarray(fact["a"]).tobytes(), digest_size=16).hexdigest()

root, role = sys.argv[1:3]
store = FactorizationStore(root, shared=True, spill=False)
if role == "publish":  # build, then hold until told to go
    fact, tier = store.fetch_or_build("k", lambda: {"a": np.arange(4096, dtype=np.float64)})
    print(tier, digest(fact), flush=True)
    sys.stdin.readline()
else:
    fact, tier = store.load("k") or (None, None)
    print(tier, digest(fact) if fact else None)
del fact
store.close()
"""


def _foreign(root, role, **popen):
    cwd = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return subprocess.Popen(
        [sys.executable, "-c", _FOREIGN, root, role],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": os.path.join(cwd, "src")}, **popen,
    )


@needs_process
def test_shared_segment_outlives_foreign_holders(tmp_path):
    """The ref markers are a store segment's only owner. On Python <
    3.13 a ``SharedMemory`` handle also registers the name with its
    process's resource tracker, which unlinks it when that process
    exits: a front end that attached and left — or published and left —
    must not take the entry from the holders that remain."""
    import hashlib

    root = str(tmp_path / "store")
    before = _shm_blocks()
    payload = np.arange(4096, dtype=np.float64)
    want = hashlib.blake2b(payload.tobytes(), digest_size=16).hexdigest()
    stderr = []

    def attach_and_leave():
        out, err = _foreign(root, "attach").communicate(timeout=120)
        stderr.append(err)
        assert out.split() == ["shared", want], (out, err)
        assert _shm_blocks() - before == {segment}  # still listed

    def publish():
        publisher = _foreign(root, "publish", stdin=subprocess.PIPE)
        assert publisher.stdout.readline().split() == ["None", want]
        return publisher

    def leave(publisher):
        _out, err = publisher.communicate("go\n", timeout=120)
        stderr.append(err)
        assert publisher.returncode == 0, err

    # two attachers come and go, one after the other, under a publisher
    publisher = publish()
    (segment,) = _shm_blocks() - before
    attach_and_leave()
    attach_and_leave()
    leave(publisher)
    assert _shm_blocks() == before and _residue(root) == []

    # the mirrored order: the publisher leaves while this process holds
    publisher = publish()
    (segment,) = _shm_blocks() - before
    store = FactorizationStore(root, shared=True, spill=False)
    held, tier = store.load("k")
    assert tier == "shared"
    leave(publisher)
    attach_and_leave()
    assert np.array_equal(held["a"], payload)
    del held
    store.close()
    assert _shm_blocks() == before and _residue(root) == []
    assert not any("resource_tracker" in err for err in stderr), stderr


def test_warm_restart_from_disk_in_fresh_process(tmp_path):
    """serve -> shutdown -> serve again: the restart factors nothing."""
    root = str(tmp_path / "store")
    rhs = str(tmp_path / "rhs.npy")
    np.save(rhs, LaplaceVolumeProblem(m=16).random_rhs(3))
    run = textwrap.dedent(
        """
        import sys
        import numpy as np
        from repro.apps import LaplaceVolumeProblem
        from repro.service import ServiceConfig, SolveService

        root, rhs, out, expect_tier = sys.argv[1:5]
        prob = LaplaceVolumeProblem(m=16)
        b = np.load(rhs)
        with SolveService(ServiceConfig(store_dir=root)) as service:
            report = service.solve(prob, b)
            stats = service.stats()
            if expect_tier == "cold":
                assert stats.factorizations == 1, stats
            else:
                assert stats.factorizations == 0, stats
                assert stats.store_hits_shared + stats.store_hits_disk == 1, stats
            np.save(out, report.x)
        """
    )
    env = {**os.environ, "PYTHONPATH": "src"}
    cwd = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    x1, x2 = str(tmp_path / "x1.npy"), str(tmp_path / "x2.npy")
    for out, phase in ((x1, "cold"), (x2, "warm")):
        proc = subprocess.run(
            [sys.executable, "-c", run, root, rhs, out, phase],
            capture_output=True, text=True, env=env, cwd=cwd,
        )
        assert proc.returncode == 0, proc.stderr
    assert np.array_equal(np.load(x1), np.load(x2))
    assert _residue(root) == []  # spill files only: locks/markers cleaned


# ----------------------------------------------------------------------
# tier 1: worker-resident shards (persistent process pool)
# ----------------------------------------------------------------------
def _resident_ids_prog(comm):
    from repro.store.resident import resident_entries

    return resident_entries()


@needs_process
def test_eviction_invalidates_worker_registry():
    from repro.service.cache import FactorizationCache

    before = _shm_blocks()
    prob = LaplaceVolumeProblem(m=24)
    cache = FactorizationCache(1 << 40)
    lookup = cache.get_or_build(
        "k",
        lambda: repro.solve(
            prob, prob.random_rhs(0), method="direct", execution="process", ranks=4
        ).factorization,
    )
    fact = lookup.fact
    handle = fact.resident
    assert handle is not None
    x1 = fact.solve(prob.random_rhs(1))
    pool = fact.backend.pool
    resident = pool.run(_resident_ids_prog, ()).results[0]
    assert handle.entry_id in resident

    assert cache.evict("k")
    resident = pool.run(_resident_ids_prog, ()).results[0]
    assert handle.entry_id not in resident  # invalidated on eviction

    # the factorization object itself still solves (reseeds on demand)
    x2 = fact.solve(prob.random_rhs(1))
    assert np.array_equal(x1, x2)
    fact.resident.drop()
    pool.shutdown()
    assert _shm_blocks() == before


@needs_process
def test_resident_solve_dispatches_o_rhs_bytes(monkeypatch):
    """A warm pooled solve ships the rhs to worker-resident shards; the
    same pool handed the factorization tree ships >= 10x the bytes
    (byte counts are deterministic, unlike the wall-clock crossover).
    Counted over everything a dispatch packs — stream plus arrays,
    whether they ride the stream or a segment."""
    import repro.vmpi.pool as pool_mod
    from repro.parallel.solve import solve_worker

    prob = LaplaceVolumeProblem(m=64)
    b = prob.random_rhs(0)
    fact = repro.solve(
        prob, b, method="direct", execution="process", ranks=4,
        srs=repro.SRSOptions(tol=1e-6, leaf_size=64),
    ).factorization
    assert fact.resident is not None
    sizes: list = []
    plain_pack = pool_mod.pack

    def counting_pack(*args, **kwargs):
        packed = plain_pack(*args, **kwargs)
        sizes.append(packed.nbytes)
        return packed

    monkeypatch.setattr(pool_mod, "pack", counting_pack)
    fact.solve(b)
    per_solve = sum(sizes)
    sizes.clear()
    fact.backend.pool.run(solve_worker, (fact.workers, prob.n, b))
    full_tree = sum(sizes)
    assert per_solve >= b.nbytes and full_tree >= 10 * per_solve, (full_tree, per_solve)
    fact.resident.drop()
    fact.backend.pool.shutdown()


@needs_process
def test_worker_respawn_rematerializes_shards():
    from repro.store.resident import _SEEDS
    from repro.vmpi.pool import get_pool

    prob = LaplaceVolumeProblem(m=24)
    fact = repro.solve(
        prob, prob.random_rhs(0), method="direct", execution="process", ranks=4
    ).factorization
    b = prob.random_rhs(7)
    x1 = fact.solve(b)
    pool = fact.backend.pool
    gen = pool.generation

    pool.shutdown()  # simulate worker death / pool teardown
    seeds_before = _SEEDS.value()
    x2 = fact.solve(b)  # new cohort -> reseed -> solve, same bits
    assert np.array_equal(x1, x2)
    # the handle saw a different cohort: a replacement pool object, or
    # the same object respawned with a bumped generation
    new_pool = get_pool(pool.nranks, pool.start_method)
    assert new_pool is not pool or new_pool.generation > gen
    assert new_pool.alive
    assert _SEEDS.value() == seeds_before + 1
    fact.resident.drop()
    new_pool.shutdown()


@needs_process
def test_resident_cap_evicts_then_reseeds_on_miss():
    """One factorization past ``RESIDENT_MAX`` pushes the oldest shards
    out of every rank; solving against it again misses worker-side,
    reseeds once and returns the thread backend's bits."""
    from repro.store.resident import _RES_MISSES, _SEEDS, RESIDENT_MAX

    prob = LaplaceVolumeProblem(m=16)
    cfg = dict(method="direct", ranks=4, srs=repro.SRSOptions(leaf_size=16))
    b = prob.random_rhs(3)
    facts = [
        repro.solve(prob, b, execution="process", **cfg).factorization
        for _ in range(RESIDENT_MAX + 1)
    ]
    try:
        pool = facts[0].backend.pool
        resident = pool.run(_resident_ids_prog, ()).results
        assert all(len(ids) == RESIDENT_MAX for ids in resident)
        assert all(facts[0].resident.entry_id not in ids for ids in resident)
        misses, seeds = _RES_MISSES.value(), _SEEDS.value()
        x = facts[0].solve(b)
        assert (_RES_MISSES.value(), _SEEDS.value()) == (misses + 1, seeds + 1)
        assert np.array_equal(x, repro.solve(prob, b, execution="thread", **cfg).x)
        facts[1].solve(b)  # displaced by the reseed in its turn: same path
        assert (_RES_MISSES.value(), _SEEDS.value()) == (misses + 2, seeds + 2)
    finally:
        for fact in facts:
            fact.resident.drop()


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
def test_submit_raises_when_pending_full():
    prob = LaplaceVolumeProblem(m=16)
    with SolveService(max_pending=1, store_dir=None) as service:
        # occupy the single slot so the next submit is refused
        assert service._stats.admit(1)
        with pytest.raises(ServiceOverloadedError):
            service.submit(prob, prob.random_rhs(0))
        assert service.stats().rejected == 1
        service._stats.release()
        # slot free again: the request goes through
        assert service.solve(prob, prob.random_rhs(0)).converged
        assert service._stats.pending == 0  # finished requests release


def test_admission_zero_disables_bound():
    prob = LaplaceVolumeProblem(m=16)
    with SolveService(max_pending=0, store_dir=None) as service:
        for i in range(4):
            assert service.solve(prob, prob.random_rhs(i)).converged
        assert service.stats().rejected == 0


def test_http_429_overloaded(tmp_path):
    import json
    import threading
    import urllib.request

    from repro.service.http import make_server

    with SolveService(max_pending=1, store_dir=None) as service:
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            assert service._stats.admit(1)  # saturate the queue
            req = urllib.request.Request(
                f"http://{host}:{port}/solve",
                data=json.dumps(
                    {"problem": {"type": "laplace_volume", "m": 16}}
                ).encode(),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(req)
            err = exc_info.value
            assert err.code == 429
            payload = json.loads(err.read())
            assert payload["code"] == "overloaded"
            assert "request_id" in payload
            service._stats.release()
        finally:
            server.shutdown()
            thread.join()


def test_rejected_total_counter_increments():
    from repro.obs import REGISTRY

    # the one family admission control reports into
    counter = REGISTRY.counter("repro_service_events_total", labelnames=("kind",))
    prob = LaplaceVolumeProblem(m=16)
    with SolveService(max_pending=1, store_dir=None) as service:
        before = counter.value(kind="rejected")
        assert service._stats.admit(1)
        with pytest.raises(ServiceOverloadedError):
            service.submit(prob, prob.random_rhs(0))
        assert counter.value(kind="rejected") == before + 1
        assert service.stats().rejected == 1
        service._stats.release()
