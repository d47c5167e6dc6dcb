import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ratcirc
from ratcirc import Perm, cli, gwp, pipeline, sring
from ratcirc.cli import AnalysisRequest, _analysis_payload, _dump_json, build_parser, main
from ratcirc.groundtruth import CirculantGraph, spectrum
from ratcirc.lattice import DEFAULT_MAX_ORACLE_N
from ratcirc.oracle import full_verify

REPO = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(tmp_path, env, *argv):
    """``argv`` through bench/child.py, under its 1.5 GiB address-space cap."""
    return subprocess.run(
        [sys.executable, str(REPO / "bench" / "child.py"), str(tmp_path / "report.json"), "run",
         *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def trace_diagnostic(n, residues):
    """The non-rational diagnostic, from the definition: the gcd class of the least offender."""
    s = set(residues)
    orbit = {x: [y for y in range(1, n) if math.gcd(y, n) == math.gcd(x, n)] for x in s}
    x = min(x for x in s if not set(orbit[x]) <= s)
    return f"error: not rational: trace of {{{x}}} is {{{','.join(map(str, orbit[x]))}}}\n"


# SHA-256 of the stdout of ``analyze n --divisors D --generators --format json``.
GENERATORS_JSON_SHA256 = {
    (200, "2,4,5,8,25"): "9cc4035895b8b83c5d9b350a075ec0a1a4d351b4dbf4c5e60e4e364e11eddb4f",
    (288, "2,3,4,9,16"): "1c30002bb389db2d49a0de587289ad06d3c0d353a1877ce9e2fe428518d77dff",
    (360, "2,3,5,8,9"): "fa7704694acd1aa340402bbb162e34d3a682efa0dd71d2172df28f604259e378",
}


class TestAnalyze:
    def test_striking_json(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "36", "--divisors", "2,3,4,6", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["order_factored"] == {"2": 11, "3": 4}
        assert payload["order"] == 165888
        assert payload["lattice"] == [1, 2, 3, 4, 6, 12, 18, 36]
        assert payload["map_coefficients"] == [12, 18, 2, 9]
        assert payload["poset"]["weights"] == [3, 2, 3, 2]
        assert payload["poset"]["relations"] == [[1, 3], [2, 3], [2, 4]]

    def test_hexagon_text(self, capsys):
        code, out, _ = run(capsys, "analyze", "6", "--set", "1,5")
        assert code == 0
        assert "order: 2^2 · 3 = 12" in out
        assert "expression: S_2 × S_3" in out

    def test_non_rational_set_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "6", "--set", "1,2")
        assert code == 2
        assert "not rational: trace of {1} is {1,5}" in err

    def test_oracle_match(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "12", "--set", "1,5,7,11", "--oracle", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle"]["match"] is True

    def test_oracle_bound_exits_3(self, capsys):
        code, _, err = run(
            capsys, "analyze", "36", "--divisors", "2", "--oracle",
            "--max-oracle-n", "20",
        )
        assert code == 3
        assert "bound" in err

    def test_oracle_rejects_a_transported_non_automorphism(self, capsys, monkeypatch):
        # Swapping 0 and 1 breaks the hexagon's edge {1, 2}; the order still matches.
        monkeypatch.setattr(gwp, "transport", lambda gens, poset: [Perm.transposition(6, 0, 1)])
        code, out, err = run(capsys, "analyze", "6", "--set", "1,5", "--oracle")
        assert (code, out) == (1, "")
        assert err == (
            "internal error: a transported generator is not an automorphism found by the oracle\n"
        )

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        from ratcirc import sring

        def exhausted(n, s):
            raise MemoryError

        monkeypatch.setattr(sring, "generate_sring", exhausted)
        code, out, err = run(capsys, "analyze", "30000", "--set", "1,29999")
        assert code == 3
        assert out == ""
        assert err.startswith("error: out of memory")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_large_rational_modulus_under_address_space_cap(self, tmp_path, src_env):
        # tau(55440) = 120; n is far above the point path's bound, so only
        # the lattice path can answer it under the cap.
        done = run_child(tmp_path, src_env,
                         "analyze", "55440", "--divisors", "2,3,5,7,8,9,11", "--format", "json")
        assert done.returncode == 0, done.stderr
        payload = json.loads(done.stdout)
        assert payload["rank"] == len(payload["lattice"])

    def test_oracle_refused_before_generators_under_address_space_cap(self, tmp_path, src_env):
        # Building the generators of this n = 55440 ring would exhaust the cap.
        done = run_child(tmp_path, src_env,
                         "analyze", "55440", "--divisors", "2,3,5,7,8,9,11", "--oracle")
        assert (done.returncode, done.stdout, done.stderr) == (
            3, "", "error: oracle refused for n=55440 (bound 40); raise --max-oracle-n to force\n")

    def test_generators_refused_before_allocation_under_address_space_cap(self, tmp_path, src_env):
        # 36997 generators of degree 55440: refused from the poset alone.
        done = run_child(tmp_path, src_env, "analyze", "55440", "--divisors", "2,3,5,7,8,9,11",
                         "--generators", "--format", "json")
        assert (done.returncode, done.stdout, done.stderr) == (
            3, "", "error: instance too large: n=55440 needs 36997 generators of degree 55440, "
                   "so 2051113680 image entries (bound 134217728)\n")

    def test_fine_ring_under_address_space_cap(self, tmp_path, src_env):
        # {1, 2} generates the discrete ring of Z_2000: about 2 million class
        # pairs in the last rounds, each round still one n x n code matrix.
        done = run_child(tmp_path, src_env, "analyze", "2000", "--set", "1,2")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == trace_diagnostic(2000, (1, 2))

    def test_point_path_bound_still_gets_the_diagnostic(self, tmp_path, src_env, bench_workloads):
        # The benchmark's n = 30000 rejection: above the point path's bound,
        # and rejected from the connection set alone.
        (req,) = [r for r in bench_workloads.WORKLOADS["reject-nonrational"].requests
                  if r.n == 30000]
        done = run_child(tmp_path, src_env, *req.argv)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == trace_diagnostic(req.n, req.residues)

    @pytest.mark.parametrize("n, size", [(4294967296, 2147483648), (720720, 138240)])
    def test_a_long_trace_is_named_under_address_space_cap(self, tmp_path, src_env, n, size):
        # The trace of {1} is the units of Z_n, too many to list: named by gcd and size.
        done = run_child(tmp_path, src_env, "analyze", str(n), "--set", "1")
        want = f"error: not rational: trace of {{1}} is {{x : gcd(x, {n}) = 1}} ({size} residues)\n"
        assert (done.returncode, done.stdout, done.stderr) == (2, "", want)
        assert len(want.encode()) < 200

    def test_traces_are_listed_up_to_the_bound(self, capsys):
        # phi(2^17) = 2^16 residues are listed; phi(2^18) = 2^17 are named.
        assert pipeline.MAX_LISTED_TRACE == 2 ** 16
        assert run(capsys, "analyze", "131072", "--set", "1") == (
            2, "", trace_diagnostic(131072, (1,)))
        assert run(capsys, "analyze", "262144", "--set", "1") == (
            2, "", "error: not rational: trace of {1} is {x : gcd(x, 262144) = 1} (131072 residues)\n")

    def test_spectrum_flag(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "6", "--set", "1,5", "--spectrum", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["spectrum"]["integral"] is True
        assert payload["spectrum"]["values"] == [2, 1, 1, -1, -1, -2]

    def test_generators_flag(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "6", "--set", "1,5", "--generators", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0
        assert all(sorted(g) == list(range(6)) for g in payload["generators"])

    @pytest.mark.parametrize("n, divisors", sorted(GENERATORS_JSON_SHA256))
    def test_generators_json_bytes_are_pinned(self, n, divisors, src_env):
        # The SHA-256 of stdout, so that a leaner transport or JSON writer keeps every byte.
        done = subprocess.run(
            [sys.executable, "-m", "ratcirc.cli", "analyze", str(n), "--divisors", divisors,
             "--generators", "--format", "json"],
            env=src_env, capture_output=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert hashlib.sha256(done.stdout).hexdigest() == GENERATORS_JSON_SHA256[n, divisors]

    @staticmethod
    def generators_json_heap_peak(n, divisors):
        """Python heap peak of ``analyze n --divisors ... --generators --format json``."""
        req = AnalysisRequest(n=n, residues=None, divisor_subset=divisors,
                              include_generators=True)
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            try:
                sink.writelines(_dump_json(_analysis_payload(req)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_generators_json_heap_stays_small(self):
        # 2.65 MiB of Python heap with fresh image lists and the document joined
        # into one string; about 1.6 MiB with shared ints and streamed pieces;
        # about 0.85 MiB with one generator set alive instead of two.
        assert self.generators_json_heap_peak(360, (2, 3, 5, 8, 9)) < 1.25 * 2 ** 20

    def test_generators_heap_holds_one_set(self):
        # The transported set takes 8 bytes an image entry (a tuple slot; the
        # ints are shared).  Holding the tuple-space set beside it reads
        # about 2.2 times that; handing each over to transport, about 1.1.
        _, _, poset = pipeline.rational_chain(720, sring.orbit_union(720, (2, 3, 5, 8, 9)))
        count = sum(m * (w - 1) for m, w in zip(gwp.gwp_exponents(poset), poset.weights))
        peak = self.generators_json_heap_peak(720, (2, 3, 5, 8, 9))
        assert peak < 1.25 * 8 * 720 * count

    def test_handed_over_clears_each_slot_before_yielding(self):
        items = [object() for _ in range(3)]
        kept = list(items)
        for k, item in enumerate(cli._handed_over(items)):
            assert item is kept[k] and items[:k + 1] == [None] * (k + 1)
        assert items == [None] * 3

    def test_loop_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", "6", "--set", "0,1")
        assert code == 2
        assert "loop" in err

    def test_both_modes_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", "6", "--set", "1,5", "--divisors", "1")
        assert code == 2

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "analyze", "36", "--divisors", "2,3,4,6", "--format", "json")
        _, out2, _ = run(capsys, "analyze", "36", "--divisors", "2,3,4,6", "--format", "json")
        assert out1 == out2

    def test_text_carries_same_facts_as_json(self, capsys):
        _, text, _ = run(capsys, "analyze", "36", "--divisors", "2,3,4,6")
        _, raw, _ = run(capsys, "analyze", "36", "--divisors", "2,3,4,6", "--format", "json")
        payload = json.loads(raw)
        assert f"rank: {payload['rank']}" in text
        assert "2^11 · 3^4 = 165888" in text
        assert "{1,2,3,4,6,12,18,36}" in text
        assert payload["expression"] in text

    def test_dot_format(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "36", "--divisors", "2,3,4,6", "--format", "dot"
        )
        assert code == 0
        assert out.count("->") == 10

    def test_dot_format_builds_no_generators(self, capsys):
        # 2051113680 image entries would be refused with exit 3; DOT prints none of them.
        argv = ["analyze", "55440", "--divisors", "2,3,5,7,8,9,11", "--format", "dot"]
        plain = run(capsys, *argv)
        assert plain[0] == 0 and plain[1].startswith("digraph lattice {")
        assert run(capsys, *argv, "--generators") == plain

    def test_one_gwp_order_per_request(self, capsys, monkeypatch):
        calls = []
        real = gwp.gwp_order
        monkeypatch.setattr(gwp, "gwp_order", lambda p: calls.append(p) or real(p))
        for argv in (["analyze", "36", "--divisors", "2,3,4,6"],
                     ["analyze", "12", "--divisors", "2,3", "--oracle", "--generators"],
                     ["analyze", "360", "--divisors", "2,3,5,8,9", "--format", "json"]):
            calls.clear()
            assert run(capsys, *argv)[0] == 0
            assert len(calls) == 1, argv

    def test_oracle_and_spectrum_share_one_graph(self, capsys, monkeypatch):
        from ratcirc import groundtruth

        graphs = []
        for name in ("brute_force_aut", "spectrum"):
            real = getattr(groundtruth, name)
            monkeypatch.setattr(groundtruth, name,
                                lambda g, real=real, **kw: graphs.append(g) or real(g, **kw))
        code, out, _ = run(capsys, "analyze", "36", "--divisors", "2,3,4,6", "--oracle",
                           "--spectrum")
        assert code == 0 and "(match: True)" in out and "spectrum: integral=True" in out
        assert len(graphs) == 2 and graphs[0] is graphs[1]


# SHA-256 of the stdout of ``enumerate n --verify --format json``.
VERIFIED_JSON_SHA256 = {
    12: "87327d22da4ae481c16d9aef3b2675531d31e4b65b2b879b118dd298a188bf9c",
    18: "c525e442dfadf5302156edbb336416a3613613648e910ead0135a09b52f010b0",
    20: "433be20cdee3baec10ad6f23fe3217184c378d3e99fae4d9b24642834fdfe333",
    36: "c5d4c61b4ba9f5a9b6efa9ff437cfd29642c3f64cc37ed1a8530bdad0e1032ac",
}


class TestEnumerate:
    def test_n12_has_32_records(self, capsys):
        code, out, _ = run(capsys, "enumerate", "12", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 32

    def test_n2(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["count"] == 2

    def test_verified_run_exits_0(self, capsys):
        code, out, _ = run(capsys, "enumerate", "12", "--verify", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_match"] is True
        assert all(r["match"] is True for r in payload["records"])

    def test_divisor_count_bound_exits_3(self, capsys):
        code, out, err = run(capsys, "enumerate", "720")
        assert code == 3
        assert out == ""
        assert err == (
            "error: instance too large: n=720 has 30 divisors, so 536870912 divisor "
            "subsets (bound 2048, tau <= 12)\n"
        )

    @pytest.mark.parametrize("n", sorted(VERIFIED_JSON_SHA256))
    def test_verified_json_bytes_are_pinned(self, n, src_env):
        # The SHA-256 of stdout, so that a faster oracle or chain keeps every byte.
        done = subprocess.run(
            [sys.executable, "-m", "ratcirc.cli", "enumerate", str(n), "--verify", "--format", "json"],
            env=src_env, capture_output=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert hashlib.sha256(done.stdout).hexdigest() == VERIFIED_JSON_SHA256[n]

    def test_oracle_skip_note_above_bound(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "44", "--verify", "--max-oracle-n", "40",
            "--format", "json",
        )
        assert code == 0
        assert "skipped" in err
        assert all(r["match"] is None for r in json.loads(out)["records"])


class TestExportDot:
    def test_striking_lattice_diagram(self, capsys):
        code, out, _ = run(capsys, "export-dot", "36", "--divisors", "2,3,4,6")
        assert code == 0
        for d in (1, 2, 3, 4, 6, 12, 18, 36):
            assert f'"{d}";' in out
        edges = {
            line.strip().rstrip(";")
            for line in out.splitlines()
            if "->" in line
        }
        assert edges == {
            '"1" -> "2"', '"1" -> "3"', '"2" -> "4"', '"2" -> "6"', '"3" -> "6"',
            '"4" -> "12"', '"6" -> "12"', '"6" -> "18"', '"12" -> "36"', '"18" -> "36"',
        }

    def test_trivial_chain(self, capsys):
        code, out, _ = run(capsys, "export-dot", "6", "--divisors", "")
        assert code == 0
        assert out.count("->") == 1

    def test_poset_n(self, capsys):
        code, out, _ = run(
            capsys, "export-dot", "36", "--divisors", "2,3,4,6", "--poset"
        )
        assert code == 0
        assert out.count("->") == 3
        assert out.count("label=") == 4

    def test_striking_diagrams_are_pinned(self, capsys):
        argv = ["36", "--divisors", "2,3,4,6"]
        assert run(capsys, "export-dot", *argv) == (0, STRIKING_LATTICE_DOT, "")
        assert run(capsys, "export-dot", *argv, "--poset") == (0, STRIKING_POSET_DOT, "")
        assert run(capsys, "analyze", *argv, "--format", "dot") == (0, STRIKING_LATTICE_DOT, "")


STRIKING_LATTICE_DOT = """digraph lattice {
  rankdir=BT;
  node [shape=plaintext];
  "1";
  "2";
  "3";
  "4";
  "6";
  "12";
  "18";
  "36";
  "1" -> "2";
  "1" -> "3";
  "2" -> "4";
  "2" -> "6";
  "3" -> "6";
  "4" -> "12";
  "6" -> "12";
  "6" -> "18";
  "12" -> "36";
  "18" -> "36";
}
"""

STRIKING_POSET_DOT = """digraph poset {
  rankdir=BT;
  node [shape=plaintext];
  "1" [label="1 [3]"];
  "2" [label="2 [2]"];
  "3" [label="3 [3]"];
  "4" [label="4 [2]"];
  "1" -> "3";
  "2" -> "3";
  "2" -> "4";
}
"""


NON_RATIONAL_DIAGNOSTIC = "error: not rational: trace of {1} is {1,5,7,11}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "12", "--set", "1,2"),
        ("export-dot", "12", "--set", "1,2"),
        ("export-dot", "12", "--set", "1,2", "--poset"),
    ],
    ids=" ".join,
)
def test_non_rational_diagnostic_is_shared(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", NON_RATIONAL_DIAGNOSTIC)


class TestRequestValidation:
    def test_needs_exactly_one_mode(self):
        with pytest.raises(ValueError):
            AnalysisRequest(n=6, residues=None, divisor_subset=None)

    def test_needs_n_at_least_2(self):
        with pytest.raises(ValueError):
            AnalysisRequest(n=1, residues=frozenset({0}), divisor_subset=None)

    def test_divisor_n_would_loop(self):
        req = AnalysisRequest(n=6, residues=None, divisor_subset=(6,))
        with pytest.raises(ValueError):
            req.connection_set()

    @pytest.mark.parametrize("command", ["analyze", "export-dot"])
    def test_modulus_zero_is_rejected_before_parsing_residues(self, capsys, command):
        code, out, err = run(capsys, command, "0", "--set", "1")
        assert (code, out, err) == (2, "", "error: n must be at least 2\n")

    @pytest.mark.parametrize("argv", [
        "analyze 1000000000000000000000 --divisors 1",
        "analyze 18446744073709551557 --divisors 1",
        "export-dot 1000000000000000000000 --set 1",
        "enumerate 18446744073709551557",  # a prime: factorizing it would not end
        "analyze 4294967297 --divisors 1",
    ])
    def test_modulus_above_2_32_is_rejected_up_front(self, argv, src_env):
        # In a subprocess, so that a regression hangs or allocates there and times out.
        done = subprocess.run([sys.executable, "-m", "ratcirc.cli", *argv.split()], env=src_env,
                              capture_output=True, text=True, timeout=30)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "error: n must be at most 2^32\n")

    @pytest.mark.parametrize("argv", [
        "analyze 6 --divisors 2 --oracle --max-oracle-n -1",
        "enumerate 6 --verify --max-oracle-n -1",
    ])
    def test_negative_max_oracle_n_is_rejected_when_parsed(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith(": error: argument --max-oracle-n: must be at least 0, got -1\n")

    @pytest.mark.parametrize("bound", [0, 1])
    def test_max_oracle_n_zero_and_one_stay_legal(self, capsys, bound):
        args = build_parser().parse_args(["analyze", "6", "--set", "1", "--max-oracle-n", str(bound)])
        assert args.max_oracle_n == bound
        code, out, err = run(capsys, "enumerate", "6", "--verify", "--max-oracle-n", str(bound))
        assert (code, err) == (0, f"note: oracle skipped, n=6 exceeds bound {bound}\n")
        assert out.endswith("rational circulants on Z_6\n")

    def test_max_oracle_n_defaults_follow_the_oracle_bound(self):
        parser = build_parser()
        assert parser.parse_args(["analyze", "6", "--set", "1"]).max_oracle_n == DEFAULT_MAX_ORACLE_N
        assert parser.parse_args(["enumerate", "6"]).max_oracle_n == DEFAULT_MAX_ORACLE_N
        req = AnalysisRequest(n=6, residues=frozenset({1}), divisor_subset=None)
        assert req.max_oracle_n == DEFAULT_MAX_ORACLE_N


class TestClosedStdout:
    # 141 = 128 + SIGPIPE, what a shell reports for a writer whose reader has left.
    def test_reader_leaves_mid_document(self, src_env):
        child = subprocess.Popen(
            [sys.executable, "-m", "ratcirc.cli", "analyze", "360", "--divisors", "2,3,5,8,9",
             "--generators", "--format", "json"],
            env=src_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert child.stdout.read(10) == b'{\n  "basic'
        child.stdout.close()  # 983 KB would follow
        assert (child.wait(timeout=120), child.stderr.read()) == (141, b"")
        child.stderr.close()

    def test_reader_gone_before_the_exit_flush(self, src_env):
        # Buffered stdout: a short answer reaches the pipe only when it is flushed.
        env = {k: v for k, v in src_env.items() if k != "PYTHONUNBUFFERED"}
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "ratcirc.cli", "analyze", "6", "--set",
                                   "1,5"], env=env, stdout=write, stderr=subprocess.PIPE,
                                  timeout=120)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, b"")


csv_tokens = st.lists(
    st.integers(-70, 70).map(str) | st.sampled_from(["", " ", "x", "-", "1.5", "0x3"]),
    max_size=4,
).map(",".join)


@st.composite
def cli_argv(draw):
    """An argv for one subcommand, sized so that no run is slow."""
    n = draw(st.integers(-2, 64))
    command = draw(st.sampled_from(["analyze", "export-dot", "enumerate"]))
    argv = [command, str(n)]
    if command == "enumerate":
        argv += draw(st.lists(st.sampled_from(["--format=json", "--format=text"]), max_size=1))
        if n <= 20 and draw(st.booleans()):
            argv.append("--verify")
        return argv
    for flag in draw(st.sampled_from([["--set"], ["--divisors"], ["--set", "--divisors"], []])):
        argv.append(f"{flag}={draw(csv_tokens)}")  # "=" keeps a leading "-" a value
    if command == "export-dot":
        argv += draw(st.lists(st.just("--poset"), max_size=1))
        return argv
    argv += draw(st.lists(st.sampled_from(["--format=json", "--format=text", "--format=dot"]),
                          max_size=1))
    argv += draw(st.lists(st.just("--generators"), max_size=1))
    argv += draw(st.lists(st.just("--spectrum"), max_size=1))
    if n <= 40:
        argv += draw(st.lists(st.just("--oracle"), max_size=1))
    return argv


@given(argv=cli_argv())
@settings(max_examples=200, deadline=None)
def test_fuzzed_argv_ends_in_an_answer_or_a_diagnosis(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


def reference_dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


json_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(st.integers(), max_size=6)
        | st.dictionaries(st.text(max_size=5), children, max_size=4)
        | st.dictionaries(st.integers(), children, max_size=3)
    ),
    max_leaves=30,
)


class TestDumpJson:
    def test_analysis_payloads(self):
        req = AnalysisRequest(n=36, residues=None, divisor_subset=(2, 3, 4, 6),
                              include_generators=True, run_oracle=True, run_spectrum=True)
        exact = _analysis_payload(req)
        assert exact["spectrum"]["exact"] and exact["generators"] and exact["oracle"]["match"]
        # A non-trace-closed set has the float-pair spectrum.
        floats = dict(exact, spectrum=spectrum(CirculantGraph.of(12, {1, 2})).to_json_dict())
        assert not floats["spectrum"]["exact"]
        # The generators-mid images are longer than any earlier table; n = 2 has degree-2 images.
        wide = [_analysis_payload(AnalysisRequest(n=n, residues=None, divisor_subset=d,
                                                  include_generators=True))
                for n, d in [(200, (2, 4, 5, 8, 25)), (288, (2, 3, 4, 9, 16)),
                             (360, (2, 3, 5, 8, 9)), (2, (1,))]]
        assert [len(p["generators"][0]) for p in wide] == [200, 288, 360, 2]
        for payload in (exact, floats, *wide):
            assert "".join(_dump_json(payload)) == reference_dump(payload)

    def test_enumerate_report(self):
        report = full_verify(12, use_oracle=True).to_json_dict()
        assert "".join(_dump_json(report)) == reference_dump(report)

    @pytest.mark.parametrize("payload", [
        # images of growing and shrinking degree share one decimal table
        {"generators": [[1, 0], list(range(300))[::-1], [2, 0, 1], list(range(1000))]},
        {"edge": [[0, 1, 3], [3, 2, 1], [0, 0, 0], [5]]},  # max equal to the length, repeats
        {"negative": [[-1, 0, 1], [0, -2]], "wide": [[2 ** 63, 0], [0, 2 ** 64 + 1, 1]]},
        {"bools": [[True, 0], [0, False, 1], [True, False]], "ints": [1, 0]},
    ])
    def test_int_lists_against_json(self, payload):
        assert "".join(_dump_json(payload)) == reference_dump(payload)

    @given(payload=st.dictionaries(st.text(max_size=5), json_payloads, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_nested_payloads(self, payload):
        assert "".join(_dump_json(payload)) == reference_dump(payload)


NUMPY_PROBE = """
import contextlib, io, json, sys
from ratcirc import cli

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "out": out.getvalue(), "err": err.getvalue(),
            "numpy": "numpy" in sys.modules}

json.dump([run(argv.split()) for argv in sys.argv[1:]], sys.stdout)
"""


class TestNumpyFree:
    def test_rational_path_does_not_import_numpy(self, bench_workloads, src_env):
        argv = ["analyze 5040 --divisors 2,3,5,7,8,9 --format json", "enumerate 12 --verify",
                "analyze 360 --divisors 2,3,5,8,9 --generators",
                "analyze 36 --divisors 2,3,4,6 --oracle",
                # Rejected by a pure-Python point-level refinement.
                "analyze 120 --set 1,2,3", "analyze 240 --set 1,2",
                # Past the point path's pair bound: refused before any row.
                "analyze 1000 --set 1,2", "analyze 4096 --set 1,2",
                # The DFT still builds n-sized vectors with numpy: it runs last.
                "analyze 12 --divisors 2 --spectrum"]
        done = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv], env=src_env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        large, verify, generators, oracle, *rejects, spec = json.loads(done.stdout)

        assert not any(r["numpy"] for r in (large, verify, generators, oracle, *rejects))
        assert (large["code"], json.loads(large["out"])["rank"]) == (0, 41)
        assert verify["code"] == 0
        assert verify["out"].endswith("32 rational circulants on Z_12\n")

        (req,) = [r for r in bench_workloads.WORKLOADS["generators-mid"].requests if r.n == 360]
        assert generators["code"] == 0 and generators["err"] == ""
        assert f"lattice: {{{','.join(map(str, req.expected['lattice']))}}}" in generators["out"]
        assert f"expression: {req.expected['expression']}" in generators["out"]
        assert generators["out"].endswith(f"generators: {req.generator_count} permutations\n")
        assert (oracle["code"], oracle["err"]) == (0, "")
        assert "oracle order: 2^11 · 3^4 = 165888 (match: True)\n" in oracle["out"]

        assert (spec["code"], spec["err"]) == (0, "")
        assert spec["out"] == (
            "n: 12\n"
            "input: divisors 2\n"
            "connection set: {2,10}\n"
            "rank: 5\n"
            "basic sets: {0} | {1,3,5,7,9,11} | {2,10} | {4,8} | {6}\n"
            "lattice: {1,2,3,6,12}\n"
            "poset: r=3; relations [1<3, 2<3]; weights (3, 2, 2)\n"
            "map coefficients: (4, 6, 1)\n"
            "order: 2^5 · 3^2 = 288\n"
            "expression: S_2 ≀ (S_2 × S_3)\n"
            "spectrum: integral=True values [2,2,1,1,1,1,-1,-1,-1,-1,-2,-2]\n"
        )

        for n, r in zip((120, 240, 1000, 4096), rejects, strict=True):
            units = ",".join(map(str, sring.units(n)))
            assert (r["code"], r["out"]) == (2, "")
            assert r["err"] == f"error: not rational: trace of {{1}} is {{{units}}}\n"


# SHA-256 of exit code, stdout and stderr of requests on either side of the
# point path's bounds, recorded while numpy still refined the sets past 2^17 pairs.
POINT_PATH_SHA256 = {
    "analyze 362 --set 1,2":
        "b0495195ff161a913795fc9e6abecd5dad0f08eb7ab24a90952910dd1b1fd97f",
    "analyze 363 --set 1,2":
        "8a1e3401cc967caa10b38e6c5267a63a35f25d7f59f5a61f5b943b741ba1f4b2",
    "analyze 1000 --set 1,2":
        "59e7661931ad8382dd43aa3c6a9b7282fa69af656729920326403c64ed83cb38",
    "analyze 4096 --set 1,2":
        "7fcd992255608a23656166d51ef6a4ed29d571a7a6bdab4ffd2a92eee646db8c",
    "analyze 4096 --set 1,4095":
        "7fcd992255608a23656166d51ef6a4ed29d571a7a6bdab4ffd2a92eee646db8c",
    "analyze 2048 --set 1,2,4":
        "3f71189c4d3f20569f914430f9ff532834c2eda8ca41b533e2dbb8160799ccd2",
    "export-dot 1024 --set 1,2 --poset":
        "5f5339d7280a64b19eff578db0ea1eee86aa4f89df2e7259d07f63369dc604da",
}


@pytest.mark.parametrize("argv", sorted(POINT_PATH_SHA256))
def test_point_path_output_bytes_are_pinned(argv, src_env):
    done = subprocess.run([sys.executable, "-m", "ratcirc.cli", *argv.split()],
                          env=src_env, capture_output=True, timeout=120)
    digest = hashlib.sha256(b"%d\0%s\0%s" % (done.returncode, done.stdout, done.stderr))
    assert digest.hexdigest() == POINT_PATH_SHA256[argv]


MODULE_PROBE = """
import contextlib, io, sys, types
from ratcirc import cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(sys.argv[1:])
# A lazily registered module that nothing has read yet is still a _LazyModule.
executed = sorted(name[len("ratcirc."):] for name, m in sys.modules.items()
                  if name.startswith("ratcirc.") and type(m) is types.ModuleType)
loaded_json = "json" in sys.modules
import json
json.dump({"code": code, "executed": executed, "json": loaded_json}, sys.stdout)
"""

# The modules each request runs: a layer is compiled only when the request reaches it.
IMPORT_ONLY = ["_record", "arith", "cli", "errors", "lattice"]
RING = sorted(IMPORT_ONLY + ["pipeline", "sring"])
POSET = sorted(RING + ["posets"])
GROUP = sorted(POSET + ["gwp"])
GENERATORS = sorted(GROUP + ["perms"])
GROUND_TRUTH = sorted(GENERATORS + ["groundtruth"])
EVERYTHING = sorted(GROUND_TRUTH + ["oracle"])


LAYERS_PER_REQUEST = [
    ("", None, IMPORT_ONLY, False),
    ("analyze 240 --set 1,2", 2, RING, False),
    ("analyze 240 --set 1,2 --format json", 2, RING, False),
    ("analyze 360 --divisors 2,3,5,8,9", 0, GROUP, False),
    ("analyze 5040 --divisors 2,3,5,7,8,9 --format json", 0, GROUP, True),
    ("export-dot 36 --divisors 2,3,4,9 --poset", 0, POSET, False),
    ("analyze 360 --divisors 2,3,5,8,9 --generators", 0, GENERATORS, False),
    ("analyze 360 --divisors 2,3,5,8,9 --generators --format dot", 0, GROUP, False),
    ("analyze 360 --divisors 2,3,5,8,9 --spectrum --format dot", 0, GROUP, False),
    ("enumerate 12", 0, EVERYTHING, False),
    ("analyze 36 --divisors 2,3,4,6 --oracle", 0, GROUND_TRUTH, False),
    ("enumerate 12 --verify --format json", 0, EVERYTHING, True),
]


class TestModulesPerRequest:
    @pytest.mark.parametrize("argv, code, executed, loads_json", LAYERS_PER_REQUEST,
                             ids=[row[0] or "import" for row in LAYERS_PER_REQUEST])
    def test_request_runs_only_the_layers_it_reaches(self, argv, code, executed, loads_json,
                                                     src_env):
        # -S: without site hooks, which may preload json on some hosts.
        done = subprocess.run([sys.executable, "-S", "-c", MODULE_PROBE, *argv.split()],
                              env=src_env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"code": code, "executed": executed,
                                           "json": loads_json}


GROUND_TRUTH_PROBE = """
import json, sys, types
from ratcirc import groundtruth as gt
order = gt.brute_force_aut(gt.CirculantGraph.of(12, {2, 3, 9, 10})).order()
exact = gt.spectrum(gt.CirculantGraph.of(12, {2, 10}))
dft = gt.spectrum(gt.CirculantGraph.of(12, {1, 2}))
executed = sorted(name[len("ratcirc."):] for name, m in sys.modules.items()
                  if name.startswith("ratcirc.") and type(m) is types.ModuleType)
json.dump({"order": order, "exact": [exact.exact, dft.exact], "executed": executed}, sys.stdout)
"""


class TestGroundTruthIndependence:
    def test_ground_truth_cannot_reach_the_pipeline(self, src_env):
        # Not -S: spectrum needs numpy from site-packages.
        done = subprocess.run([sys.executable, "-c", GROUND_TRUTH_PROBE], env=src_env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["order"] > 1 and report["exact"] == [True, False]
        assert "groundtruth" in report["executed"]
        assert set(report["executed"]) <= {"_record", "arith", "errors", "lattice", "perms",
                                           "groundtruth"}


# The public names as the package's eager imports bound them, by home module.
PUBLIC_API = {
    "errors": ("BoundExceededError", "InternalConsistencyError", "NotRationalError",
               "RatcircError"),
    "lattice": ("DivisorLattice", "divisors", "lattice_closure", "tau"),
    "perms": ("Perm", "PermutationGroup", "is_subgroup_of"),
    "sring": ("RationalSRing", "SchurRing", "basic_sets_from_lattice", "generate_sring",
              "group_basis", "is_rational", "orbit_set", "orbit_union", "trace"),
    "posets": ("TransportMap", "WeightedPoset", "antichain", "chain", "lattice_to_poset",
               "poset_from_pairs", "weak_iso_map"),
    "gwp": ("GroupExpression", "gwp_generators", "gwp_order", "render_group_expression",
            "transport"),
    "groundtruth": ("CirculantGraph", "SpectrumReport", "brute_force_aut", "ramanujan_sum",
                    "spectrum"),
    "oracle": ("VerifyRecord", "VerifyReport", "full_verify", "pipeline_order"),
    "claims": ("ComplementIdentityWitness", "PartitionOfZn", "SimplicityReport",
               "ancestral_sets", "complement_identity_check", "coset_partition",
               "count_rational_circulants", "crested_product", "full_lattice",
               "generator_subset", "is_simple_lattice", "is_trace_closed",
               "orthogonality_check", "poset_block_partition", "poset_isomorphic",
               "poset_to_lattice", "rational_iso_test", "schurity_check",
               "simple_reduction_applies", "sublattices", "subgroup", "trivial_lattice"),
}


class TestPublicApi:
    def test_every_public_name_resolves_to_its_home_module(self):
        listed = dir(ratcirc)
        for module, names in PUBLIC_API.items():
            home = sys.modules[f"ratcirc.{module}"]
            assert getattr(ratcirc, module) is home
            for name in names:
                obj = getattr(home, name)
                assert getattr(ratcirc, name) is obj, name
                namespace: dict = {}
                exec(f"from ratcirc import {name}", namespace)
                assert namespace[name] is obj, name
                assert name in listed, name
        public = {name for names in PUBLIC_API.values() for name in names}
        star: dict = {}
        exec("from ratcirc import *", star)
        assert set(PUBLIC_API) <= set(star)
        # Exactly the table: a name added to or removed from the package updates it.
        exported = {name for name in ratcirc.__all__
                    if not isinstance(getattr(ratcirc, name), types.ModuleType)}
        assert exported == public

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            ratcirc.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from ratcirc import no_such_name", {})


STARTUP_PROBE = """
import contextlib, io, json, sys
HEAVY = ("dataclasses", "inspect", "typing")
loaded = lambda: [m for m in HEAVY if m in sys.modules]
before = loaded()
from ratcirc import cli
out = [{"argv": "import", "code": None, "loaded": loaded()}]
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv.split())
    out.append({"argv": argv, "code": code, "loaded": loaded()})
json.dump({"before": before, "runs": out}, sys.stdout)
"""


class TestStartupImports:
    def test_requests_load_no_dataclasses_inspect_or_typing(self, src_env):
        # -S: without site hooks, which may preload typing on some hosts.
        argv = ["analyze 5040 --divisors 2,3,5,7,8,9 --format json", "enumerate 12 --verify",
                "analyze 360 --divisors 2,3,5,8,9 --generators",
                "analyze 36 --divisors 2,3,4,6 --oracle",
                "export-dot 36 --divisors 2,3,4,9 --poset",
                "analyze 120 --set 1,2,3", "analyze 240 --set 1,2"]
        done = subprocess.run([sys.executable, "-S", "-c", STARTUP_PROBE, *argv], env=src_env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["before"] == []
        assert [(r["argv"], r["loaded"]) for r in report["runs"]] == [
            (a, []) for a in ["import", *argv]]
        assert [r["code"] for r in report["runs"]] == [None, 0, 0, 0, 0, 0, 2, 2]
