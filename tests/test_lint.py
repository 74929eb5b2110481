"""Tests for the whole-program analyzer suite (``repro.lint``).

Covers the diagnostics engine, the five analyzers against the seeded
``tests/lint_corpus`` programs, cleanliness of the library workloads,
byte-for-byte pinned analyzer output, pipeline integration
(``--analyze`` stages, reports, ``--Werror``), the ``repro lint`` CLI,
and the <10% analyzer-overhead budget.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import ConversionOptions, convert_source
from repro.__main__ import main
from repro.errors import LintError
from repro.lint import (
    Diagnostic,
    Severity,
    Span,
    lint_source,
    render_json,
    render_text,
)
from repro.lint.diagnostics import filter_diagnostics
from repro.stages import STAGE_NAMES
from repro.stages.cache import CompileCache
from repro.verify.frontier import lockstep_pairs
from repro.workloads import all_sources

from tests.helpers import LISTING1_RUNNABLE

CORPUS = Path(__file__).parent / "lint_corpus"
CORPUS_FILES = sorted(CORPUS.glob("*.mimdc"))

ANALYZED_STAGES = ("parse", "sema", "lower", "opt-cfg", "analyze",
                   "convert", "opt-meta", "encode", "plan",
                   "analyze-meta", "kernels", "native")


def expected_codes(path: Path) -> list[str]:
    """``// expect: MSC0xx`` annotations (``-info`` suffix allowed)."""
    out = []
    for line in path.read_text().splitlines():
        stripped = line.strip()
        if stripped.startswith("// expect:"):
            out.append(stripped.split(":", 1)[1].strip())
    return out


def reportable(diagnostics):
    """Findings a corpus program is expected to declare.

    MSC031 (unbalanced arms) is an informational cost note that rides
    along with almost any divergent program, so corpus annotations do
    not have to list it.
    """
    out = []
    for d in diagnostics:
        if d.code == "MSC031" and d.severity == Severity.INFO:
            continue
        out.append(f"{d.code}-info" if d.severity == Severity.INFO
                   else d.code)
    return sorted(out)


class TestCorpus:
    def test_corpus_seeded(self):
        assert len(CORPUS_FILES) >= 10
        bad = [p for p in CORPUS_FILES if expected_codes(p)]
        clean = [p for p in CORPUS_FILES if not expected_codes(p)]
        assert len(bad) >= 8 and len(clean) >= 2

    @pytest.mark.parametrize("path", CORPUS_FILES,
                             ids=lambda p: p.stem)
    def test_exactly_expected_codes(self, path):
        result = lint_source(path.read_text(), filename=path.name)
        assert reportable(result.diagnostics) == sorted(
            expected_codes(path)), path.name

    def test_clean_files_fully_clean(self):
        for path in CORPUS_FILES:
            if expected_codes(path):
                continue
            result = lint_source(path.read_text(), filename=path.name)
            assert result.diagnostics == [], path.name

    def test_findings_carry_spans_and_hints(self):
        path = CORPUS / "unused_var.mimdc"
        result = lint_source(path.read_text(), filename=path.name)
        found = [d for d in result.diagnostics if d.code == "MSC040"]
        assert len(found) == 2
        for d in found:
            assert d.span is not None and d.span.line >= 1
            assert d.hint
            assert d.analyzer == "source"

    def test_explosion_bomb_is_error(self):
        path = CORPUS / "explosion_bomb.mimdc"
        result = lint_source(path.read_text(), filename=path.name)
        bombs = [d for d in result.diagnostics if d.code == "MSC030"]
        assert len(bombs) == 1
        assert bombs[0].severity == Severity.ERROR
        assert not result.ok()

    def test_eager_explosion_hints_at_lazy(self):
        path = CORPUS / "explosion_bomb.mimdc"
        result = lint_source(path.read_text(), filename=path.name)
        (bomb,) = [d for d in result.diagnostics if d.code == "MSC030"]
        assert "--lazy" in bomb.hint

    @pytest.mark.parametrize("stem", ["explosion_branch_tree",
                                      "explosion_random_walks"])
    def test_explosion_downgrades_to_warning_under_lazy(self, stem):
        # The same programs that hard-error eagerly only warn when the
        # compile is lazy: only reachable states materialize, so the
        # eager bound is advisory, not fatal.
        path = CORPUS / f"{stem}.mimdc"
        src = path.read_text()
        result = lint_source(src, ConversionOptions(lazy=True),
                             filename=path.name)
        bombs = [d for d in result.diagnostics if d.code == "MSC030"]
        assert len(bombs) == 1
        assert bombs[0].severity == Severity.WARNING
        assert "--max-resident-meta" in bombs[0].hint
        assert result.ok()
        # Lazy lint continues into the meta phase incrementally: the
        # conversion engine is built and the frontier verifier drives it
        # under the state budget.
        assert "convert" in result.stages_run


class TestWorkloadsClean:
    @pytest.mark.parametrize("name", sorted(all_sources()))
    def test_no_warnings_on_library_workloads(self, name):
        result = lint_source(all_sources()[name], filename=name)
        loud = [d for d in result.diagnostics
                if Severity.rank(d.severity) >=
                Severity.rank(Severity.WARNING)]
        assert loud == [], name
        assert result.ok(werror=True)

    def test_spawn_waves_no_race_false_positive(self):
        # Regression: the converter's parked-set union used to yield a
        # spurious meta state pairing blocks parked at *sequential*
        # barriers; the path-sensitive co-residence refinement prunes it.
        result = lint_source(all_sources()["spawn_waves"],
                             filename="spawn_waves")
        assert [d for d in result.diagnostics
                if d.code.startswith("MSC02")] == []


#: Corpus programs an eager compile refuses (or converts only at great
#: cost); their analyzer output is pinned under ``--lazy`` alone.
EXPLOSION_STEMS = {"explosion_bomb", "explosion_branch_tree",
                   "explosion_random_walks", "explosion_uniform_tree"}


def pinned_programs() -> dict[str, str]:
    """The lint corpus plus the nine library programs."""
    out = {p.stem: p.read_text() for p in CORPUS_FILES}
    out.update(all_sources())
    return out


def pinned_options(name: str) -> list[ConversionOptions]:
    """``-O1``/``-O2`` x compress x eager/lazy (lazy only for the
    explosion programs)."""
    lazies = (True,) if name in EXPLOSION_STEMS else (False, True)
    return [ConversionOptions(opt_level=level, compress=compress,
                              lazy=lazy)
            for level in (1, 2) for compress in (False, True)
            for lazy in lazies]


def analyzer_digest(name: str, source: str) -> str:
    """Digest of everything the analyzers emit for one program over its
    pinned configurations: each run's ``render_json`` report, in
    emission order, and each analyzer record's name and counters (no
    timings)."""
    h = hashlib.sha256()
    for options in pinned_options(name):
        result = lint_source(source, options)
        h.update(render_json(result.diagnostics).encode())
        h.update(json.dumps([[r.name, r.counters] for r in result.records],
                            sort_keys=True).encode())
    return h.hexdigest()[:16]


#: ``analyzer_digest`` per program, recorded before the analysis core
#: was consolidated (``python -m tests.test_lint`` prints this table).
PINNED_DIGESTS = {
    "barrier_deadlock": "d36ee7d54d042832",
    "barrier_mismatch": "d5c4b2311dd2c7b2",
    "barrier_phases": "ee2ee08ddd8c2bd7",
    "benign_race": "8e231fbf60267776",
    "clean_barrier": "55a3dd64abada03d",
    "clean_reduce": "d0a4214aadef4d5a",
    "collatz_depth": "d5d4907a315c9b90",
    "constant_cond": "54ff25d592e81361",
    "dead_router_store": "3b6ea59cc6f29841",
    "divergent_loop_barrier": "2515a6c731db9a27",
    "divergent_loops": "7a68e952f7df4d5a",
    "divergent_phases": "9d0545523d51abe3",
    "explosion_bomb": "71bd8af893985844",
    "explosion_branch_tree": "bc7ab3d9846b1838",
    "explosion_random_walks": "53d16a12e35bffa6",
    "explosion_uniform_tree": "f26eb2a10c6b6ae9",
    "imbalanced_branch": "a128f8bcc10578fd",
    "mandelbrot": "29a4a1869b850821",
    "odd_even_sort": "a4c7b8c87327b817",
    "read_write_race": "3218386e42cd57d3",
    "slot_race": "f04c606af8f1d028",
    "spawn_waves": "a64a959b75b1bf80",
    "tree_reduction": "1a1073ee06a91a32",
    "uniform_chain": "7256e9a6b3474278",
    "uninit_read": "a8894290ef17698b",
    "unreachable": "cbfbdcba849da154",
    "unused_var": "6b1513893768e843",
}


class TestPinnedOutput:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_analyzer_output_unchanged(self, name):
        source = pinned_programs()[name]
        assert analyzer_digest(name, source) == PINNED_DIGESTS[name]

    def test_every_program_pinned(self):
        assert set(PINNED_DIGESTS) == set(pinned_programs())


class TestCoResidence:
    def test_divergent_arms_are_co_resident(self):
        r = convert_source(CORPUS.joinpath("slot_race.mimdc").read_text(),
                           cache=None)
        pairs = lockstep_pairs(r.cfg)
        assert pairs is not None
        # Some pair of distinct blocks must be realizable (the arms).
        assert any(len(p) == 2 for p in pairs)

    def test_straight_line_barriers_have_no_pairs(self):
        # No divergence: the lockstep walk never holds two active
        # blocks at once, so no block pair is ever co-resident.
        src = ("main() { poly int x; x = procnum; wait;\n"
               "         x = x + 1; wait; return (x); }\n")
        r = convert_source(src, cache=None)
        pairs = lockstep_pairs(r.cfg)
        assert pairs == set()


class TestDiagnosticsEngine:
    def test_severity_order(self):
        assert Severity.rank(Severity.INFO) < \
            Severity.rank(Severity.WARNING) < \
            Severity.rank(Severity.ERROR)

    def test_json_round_trip(self):
        d = Diagnostic(code="MSC010", message="m", severity="warning",
                       span=Span(3, 7), hint="add a wait",
                       analyzer="barrier")
        assert Diagnostic.from_json(d.to_json()) == d
        bare = Diagnostic(code="MSC030", message="boom",
                          severity="error")
        assert Diagnostic.from_json(bare.to_json()) == bare

    def test_filter_select_prefix(self):
        ds = [Diagnostic("MSC010", "a"), Diagnostic("MSC040", "b"),
              Diagnostic("MSC041", "c")]
        assert [d.code for d in
                filter_diagnostics(ds, select=("MSC04",))] == \
            ["MSC040", "MSC041"]
        assert [d.code for d in
                filter_diagnostics(ds, ignore=("MSC04",))] == ["MSC010"]
        assert [d.code for d in
                filter_diagnostics(ds, select=("MSC0",),
                                   ignore=("MSC010",))] == \
            ["MSC040", "MSC041"]

    def test_render_text_caret(self):
        src = "main() {\n    poly int x;\n    return (0);\n}\n"
        d = Diagnostic("MSC040", "variable 'x' is never read",
                       span=Span(2, 14), hint="remove it")
        text = render_text([d], source=src, filename="t.mimdc")
        assert "t.mimdc:2:14: warning: MSC040" in text
        assert "^" in text
        assert "remove it" in text

    def test_lint_source_select_ignore(self):
        src = CORPUS.joinpath("unused_var.mimdc").read_text()
        only = lint_source(src, select=("MSC040",))
        assert {d.code for d in only.diagnostics} == {"MSC040"}
        none = lint_source(src, ignore=("MSC0",))
        assert none.diagnostics == []


class TestPipelineIntegration:
    def test_default_stage_list_unchanged(self):
        r = convert_source(LISTING1_RUNNABLE)
        assert r.report.stage_names() == list(STAGE_NAMES)

    def test_analyze_splices_two_stages(self):
        r = convert_source(LISTING1_RUNNABLE,
                           ConversionOptions(analyze=True))
        assert r.report.stage_names() == list(ANALYZED_STAGES)
        analyze = r.report.stage("analyze")
        assert [s.name for s in analyze.subrecords] == \
            ["verify-cfg", "absint", "barrier", "explosion", "source"]
        meta = r.report.stage("analyze-meta")
        assert [s.name for s in meta.subrecords] == \
            ["frontier", "certify", "verify-meta", "races"]
        assert all(s.seconds >= 0 for s in analyze.subrecords)

    def test_report_carries_diagnostics(self):
        src = CORPUS.joinpath("unused_var.mimdc").read_text()
        r = convert_source(src, ConversionOptions(analyze=True))
        codes = [d.code for d in r.report.diagnostics]
        assert codes.count("MSC040") == 2
        data = r.report.to_json()
        assert [d["code"] for d in data["diagnostics"]] == codes

    def test_analyzer_is_pure_observer(self):
        r_plain = convert_source(LISTING1_RUNNABLE, cache=None)
        r_lint = convert_source(LISTING1_RUNNABLE,
                                ConversionOptions(analyze=True),
                                cache=None)
        assert r_plain.mpl_text() == r_lint.mpl_text()

    def test_werror_raises_lint_error(self):
        src = CORPUS.joinpath("barrier_deadlock.mimdc").read_text()
        with pytest.raises(LintError) as exc:
            convert_source(src, ConversionOptions(analyze=True,
                                                  werror=True))
        assert "Werror" in str(exc.value)
        assert any(d.code == "MSC010" for d in exc.value.diagnostics)

    def test_werror_failure_not_cached(self, tmp_path):
        src = CORPUS.joinpath("barrier_deadlock.mimdc").read_text()
        cache = CompileCache(root=tmp_path)
        with pytest.raises(LintError):
            convert_source(src, ConversionOptions(analyze=True,
                                                  werror=True),
                           cache=cache)
        assert cache.stores == 0

    def test_explosion_error_aborts_before_convert(self):
        src = CORPUS.joinpath("explosion_bomb.mimdc").read_text()
        # 3^13 meta states would blow the conversion cap; MSC030 must
        # fire first, from the analyze stage, even without --Werror.
        with pytest.raises(LintError) as exc:
            convert_source(src, ConversionOptions(analyze=True))
        assert "MSC030" in str(exc.value)

    def test_warm_hit_replays_analysis(self, tmp_path):
        src = CORPUS.joinpath("unused_var.mimdc").read_text()
        cache = CompileCache(root=tmp_path)
        opts = ConversionOptions(analyze=True, lazy=False)
        r1 = convert_source(src, opts, cache=cache)
        r2 = convert_source(src, opts, cache=cache)
        assert (r1.report.cache, r2.report.cache) == ("miss", "hit")
        assert r2.report.stage_names()[-2:] == ["analyze",
                                                "analyze-meta"]
        assert all(r2.report.stage(name).cached
                   for name in ("analyze", "analyze-meta"))
        assert r2.report.executed_stages() == []
        assert [d.to_json() for d in r2.report.diagnostics] == \
            [d.to_json() for d in r1.report.diagnostics]

    def test_warm_hit_still_enforces_werror(self, tmp_path):
        src = CORPUS.joinpath("barrier_deadlock.mimdc").read_text()
        cache = CompileCache(root=tmp_path)
        convert_source(src, ConversionOptions(analyze=True),
                       cache=cache)
        with pytest.raises(LintError):
            convert_source(src, ConversionOptions(analyze=True,
                                                  werror=True),
                           cache=cache)


class TestLintCli:
    @pytest.fixture
    def bad_file(self):
        return str(CORPUS / "barrier_deadlock.mimdc")

    @pytest.fixture
    def clean_file(self):
        return str(CORPUS / "clean_barrier.mimdc")

    def test_clean_exits_zero(self, clean_file, capsys):
        assert main(["lint", clean_file]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_warning_exits_zero_without_werror(self, bad_file, capsys):
        assert main(["lint", bad_file]) == 0
        out = capsys.readouterr().out
        assert "MSC010" in out and "warning" in out

    def test_warning_exits_one_with_werror(self, bad_file, capsys):
        assert main(["lint", bad_file, "--Werror"]) == 1
        assert "MSC010" in capsys.readouterr().out

    def test_error_exits_one_even_without_werror(self, capsys):
        assert main(["lint",
                     str(CORPUS / "explosion_bomb.mimdc")]) == 1
        assert "MSC030" in capsys.readouterr().out

    def test_json_format(self, bad_file, capsys):
        assert main(["lint", bad_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert any(d["code"] == "MSC010" for d in data["diagnostics"])

    def test_select_filter(self, bad_file, capsys):
        assert main(["lint", bad_file, "--select", "MSC040"]) == 0
        assert "MSC010" not in capsys.readouterr().out

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.mimdc"
        path.write_text("main() { poly int x\n")
        assert main(["lint", str(path)]) == 2

    def test_compile_analyze_werror_exits_two(self, bad_file, capsys):
        assert main(["compile", bad_file, "--analyze", "--no-cache",
                     "--Werror"]) == 2
        err = capsys.readouterr().err
        assert "MSC010" in err and "Werror" in err


class TestOverheadBudget:
    def test_analyzers_under_ten_percent_cold(self, tmp_path):
        """Acceptance: analyze + analyze-meta < 10% of a cold
        ``--no-cache`` CLI compile of odd_even_sort (best of 3)."""
        src = tmp_path / "odd_even_sort.mimdc"
        src.write_text(all_sources()["odd_even_sort"])
        env = dict(os.environ)
        root = Path(__file__).resolve().parents[1]
        env["PYTHONPATH"] = str(root / "src")
        best = 1.0
        for attempt in range(3):
            report = tmp_path / f"report{attempt}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "compile", str(src),
                 "--analyze", "--no-cache",
                 "--report-json", str(report)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            data = json.loads(report.read_text())
            lint_s = sum(s["seconds"] for s in data["stages"]
                         if s["name"] in ("analyze", "analyze-meta"))
            total_s = sum(s["seconds"] for s in data["stages"])
            best = min(best, lint_s / total_s)
        assert best < 0.10, f"analyzer overhead {best:.1%}"


if __name__ == "__main__":
    for name, source in sorted(pinned_programs().items()):
        print(f'    "{name}": "{analyzer_digest(name, source)}",')
