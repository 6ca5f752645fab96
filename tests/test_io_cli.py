"""File format round trips and the CLI contract: exit codes, report
determinism, and the documented command examples."""

import subprocess
import sys
import time

import numpy as np
import pytest

from zsforest import fileio
from zsforest.cli import main
from zsforest.fileio import (FileFormatError, clique_from_text,
                             clique_to_text, embedding_from_text,
                             embedding_to_text, forest_from_text,
                             graph_from_text, report_from_text,
                             report_to_text)
from zsforest.patterns import matching, path, spider, star
from zsforest.randomgen import random_coloring, random_forest


# --- forest files ------------------------------------------------------------


def forest_text(f):
    """A forest file listing f's edges in sorted order."""
    lines = [f"forest {f.n} {f.edge_count}"]
    lines += [f"{u} {v}" for u, v in f.sorted_edges()]
    return "\n".join(lines) + "\n"


def test_forest_round_trip():
    for text, f in (("forest 4 3\n0 1\n1 2\n2 3\n", path(4)),
                    ("forest 4 3\n0 3\n0 1\n0 2\n", star(3)),
                    ("forest 4 3\n2 3\n0 2\n0 1\n", spider(1, 2)),
                    ("forest 4 2\n2 3\n0 1\n", matching(2))):
        got = forest_from_text(text)
        assert got == f
        assert forest_from_text(forest_text(got)) == f
    for seed in range(25):
        f = random_forest(6 + seed % 7, 1 + seed % 3, seed)
        assert forest_from_text(forest_text(f)) == f


def test_forest_comments_and_blanks():
    text = "# a path\nforest 3 2\n\n0 1  # first\n1 2\n"
    assert forest_from_text(text) == path(3)


FOREST_CYCLE = "forest 3 3\n0 1\n1 2\n0 2\n"


@pytest.mark.parametrize("text", [
    "",
    "woods 3 2\n0 1\n1 2\n",
    "forest 3\n0 1\n1 2\n",
    "forest 3 2\n0 1\n",              # count mismatch
    "forest 3 2\n0 1\n1 2\n0 2\n",    # count mismatch the other way
    "forest 3 2\n1 0\n1 2\n",         # u < v violated
    "forest 3 2\n0 1\n0 1\n",         # duplicate
    "forest 3 2\n0 1\n1 3\n",         # out of range
    "forest 3 2\n0 1\n1 x\n",
    FOREST_CYCLE,
    "forest 4 2\n0 1\n1 2\n",         # vertex 3 isolated
    "forest -1 0\n",
])
def test_forest_rejects(text):
    with pytest.raises(FileFormatError):
        forest_from_text(text)
    if text != FOREST_CYCLE:  # the one input that is a valid general graph
        with pytest.raises(FileFormatError):
            graph_from_text(text)


def test_forest_header_with_too_many_vertices(monkeypatch):
    # m edges touch at most 2m vertices, so the header alone is malformed
    # and is rejected before a builder allocates per-vertex state
    def never(n, edges):
        raise AssertionError(f"build called with n={n}")

    monkeypatch.setattr(fileio, "build_forest", never)
    monkeypatch.setattr(fileio, "build_graph", never)
    for parse in (forest_from_text, graph_from_text):
        with pytest.raises(FileFormatError, match="at most 2"):
            parse("forest 1000000000 1\n0 1\n")


def test_graph_allows_cycles():
    g = graph_from_text("forest 4 4\n0 1\n0 3\n1 2\n2 3\n")
    assert g.n == 4 and g.edge_count == 4
    with pytest.raises(FileFormatError):
        graph_from_text("forest 4 3\n0 1\n1 2\n0 2\n")  # vertex 3 isolated


# --- coloring files ----------------------------------------------------------


def test_clique_round_trip():
    for seed in range(10):
        k = random_coloring(4 + seed, 2 + seed % 4, seed)
        k2 = clique_from_text(clique_to_text(k))
        assert k2.order == k.order and k2.modulus == k.modulus
        assert np.array_equal(k2.matrix, k.matrix)


def test_clique_pairs_any_order():
    k = clique_from_text("clique 3 2\n1 0 1\n2 0 0\n1 2 1\n")
    assert k.value(0, 1) == 1 and k.value(0, 2) == 0 and k.value(1, 2) == 1


@pytest.mark.parametrize("text", [
    "",
    "clique 3\n",
    "forest 3 2\n0 1\n1 2\n",
    "clique 3 2\n0 1 1\n0 2 0\n",            # missing pair
    "clique 3 2\n0 1 1\n1 0 0\n1 2 0\n",     # duplicate pair
    "clique 3 2\n0 1 2\n0 2 0\n1 2 0\n",     # color out of range
    "clique 3 2\n0 1 70000\n0 2 0\n1 2 0\n",  # ... and beyond int16
    "clique 3 2\n0 1 0\n0 2 -1\n1 2 0\n",    # negative color
    "clique 3 2\n0 1 1\n0 2 0\n1 2 99999999999999999999\n",  # beyond int64
    "clique 3 40000\n0 1 39999\n0 2 0\n1 2 0\n",  # modulus beyond int16
    "clique 3 2\n0 1 1\n0 3 0\n1 2 0\n",     # vertex out of range
    "clique 3 2\n0 0 1\n0 2 0\n1 2 0\n",     # loop
    "clique 10000000 3\n0 1 1\n",  # not total; K_10^7 is never allocated
])
def test_clique_rejects(text):
    with pytest.raises(FileFormatError):
        clique_from_text(text)


def test_header_error_names_the_fields_of_its_kind():
    with pytest.raises(FileFormatError, match="'clique' <N> <p>,"):
        clique_from_text("clique 3\n")
    with pytest.raises(FileFormatError, match="'forest' <n> <m>,"):
        forest_from_text("forest 3\n0 1\n1 2\n")


# --- reports and embeddings --------------------------------------------------


def test_report_round_trip():
    fields = [("command", "find"), ("found", "true"), ("embedding", "0:1,1:2")]
    assert report_from_text(report_to_text(fields)) == fields
    with pytest.raises(FileFormatError):
        report_from_text("not-a-report\nkey = value\n")
    with pytest.raises(FileFormatError):
        report_from_text("zsr-report v1\nno separator here\n")


def test_embedding_round_trip():
    mapping = (4, 0, 7, 2)
    text = embedding_to_text(mapping)
    assert text == "0:4,1:0,2:7,3:2"
    assert embedding_from_text(text, 4) == mapping
    for bad in ("0:1,1:2", "0:1,0:2,2:3,3:4", "0:a,1:2,2:3,3:4"):
        with pytest.raises(FileFormatError):
            embedding_from_text(bad, 4)


# --- CLI ---------------------------------------------------------------------


@pytest.fixture
def files(tmp_path):
    (tmp_path / "p7.forest").write_text(forest_text(path(7)))
    (tmp_path / "star3.forest").write_text(forest_text(star(3)))
    (tmp_path / "c4.forest").write_text("forest 4 4\n0 1\n0 3\n1 2\n2 3\n")
    (tmp_path / "k22.clique").write_text(
        clique_to_text(random_coloring(22, 3, 7)))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(report: str) -> str:
    return "\n".join(line for line in report.splitlines()
                     if not line.startswith("time_"))


def test_cli_find_at_guarantee_scale(files, capsys):
    code, out, _ = run(capsys, "find",
                       "--forest", str(files / "p7.forest"),
                       "--clique", str(files / "k22.clique"),
                       "--no-fallback")
    assert code == 0
    fields = dict(report_from_text(out))
    assert fields["found"] == "true"
    assert fields["case_used"] != "BruteForceFallback"
    assert fields["verified"] == "true"
    assert fields["edge_sum"] == "0"


def test_cli_ramsey_example(files, capsys):
    code, out, _ = run(capsys, "ramsey", "--graph", str(files / "c4.forest"),
                       "--k", "2", "--max-n", "6")
    assert code == 0
    assert dict(report_from_text(out))["value"] == "4"


def test_cli_ramsey_reduce_symmetry(files, capsys):
    (files / "p4.forest").write_text(forest_text(path(4)))
    for graph, k, value in (("c4.forest", "2", "4"), ("p4.forest", "3", "5")):
        argv = ("ramsey", "--graph", str(files / graph), "--k", k,
                "--max-n", "6")
        reports = []
        for extra, flag in (((), "no"), (("--reduce-symmetry",), "yes")):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0
            reports.append(dict(report_from_text(out)))
            assert reports[-1]["reduce_symmetry"] == flag
            assert reports[-1]["value"] == value
        plain, reduced = (int(r["colorings_checked"]) for r in reports)
        assert reduced < plain


def test_cli_ramsey_checkpoint_io_errors(files, capsys):
    # a checkpoint in a missing directory fails on the first write, and one
    # that names a directory fails on the first read: both are bad input
    for ckpt in (files / "no" / "such" / "dir" / "scan.ckpt", files):
        code, out, err = run(capsys, "ramsey",
                             "--graph", str(files / "c4.forest"),
                             "--k", "2", "--max-n", "6",
                             "--checkpoint", str(ckpt))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_cli_find_on_extremal_coloring(files, capsys):
    code, out, _ = run(capsys, "extremal", "star", "--n", "4", "--p", "3")
    assert code == 0
    (files / "ex.clique").write_text(out)
    code, out, _ = run(capsys, "find",
                       "--forest", str(files / "star3.forest"),
                       "--clique", str(files / "ex.clique"), "--no-fallback")
    assert code == 1
    assert dict(report_from_text(out))["found"] == "false"


def test_cli_classify(files, capsys):
    code, out, _ = run(capsys, "classify",
                       "--forest", str(files / "p7.forest"),
                       "--clique", str(files / "k22.clique"))
    assert code == 0
    fields = dict(report_from_text(out))
    assert fields["bushy"] == "false"
    assert fields["leaf_count"] == "2"
    assert fields["vibrant"] in ("true", "false")
    assert fields["switchable"] in ("true", "false")


def test_cli_verify_round_trip(files, capsys):
    code, rep, _ = run(capsys, "find",
                       "--forest", str(files / "p7.forest"),
                       "--clique", str(files / "k22.clique"))
    assert code == 0
    (files / "ok.report").write_text(rep)
    code, out, _ = run(capsys, "verify", "--report", str(files / "ok.report"),
                       "--forest", str(files / "p7.forest"),
                       "--clique", str(files / "k22.clique"))
    assert code == 0
    assert dict(report_from_text(out))["verified"] == "true"

    # corrupt the embedding: repeat a host vertex
    fields = report_from_text(rep)
    mapping = dict(fields)["embedding"].split(",")
    mapping[0] = mapping[0].split(":")[0] + ":" + mapping[1].split(":")[1]
    broken = [(key, ",".join(mapping) if key == "embedding" else value)
              for key, value in fields]
    (files / "bad.report").write_text(report_to_text(broken))
    code, out, _ = run(capsys, "verify", "--report", str(files / "bad.report"),
                       "--forest", str(files / "p7.forest"),
                       "--clique", str(files / "k22.clique"))
    assert code == 1
    assert dict(report_from_text(out))["verified"] == "false"


def test_cli_input_errors(files, capsys):
    code, _, err = run(capsys, "find", "--forest", str(files / "absent"),
                       "--clique", str(files / "k22.clique"))
    assert code == 2 and "error:" in err

    # 3 does not divide e(P_3) = 2: ill-posed question
    (files / "p3.forest").write_text(forest_text(path(3)))
    code, _, err = run(capsys, "find", "--forest", str(files / "p3.forest"),
                       "--clique", str(files / "k22.clique"))
    assert code == 2 and "divide" in err


def test_cli_random_rejects_the_modulus_before_drawing(capsys):
    # colors up to 39999 would not fit the int16 matrix, and drawing the
    # 1,999,000 colors of K_2000 takes seconds
    t0 = time.perf_counter()
    code, out, err = run(capsys, "random", "--n", "2000", "--p", "40000",
                         "--seed", "1")
    assert time.perf_counter() - t0 < 0.5
    assert code == 2 and out == ""
    assert err == "error: modulus must be in [2, 32768], got 40000\n"


def test_cli_sizes_that_cannot_be_allocated(files, capsys):
    # K_{10^7} needs 182 TiB even as an int16 matrix, more than a process
    # can address, so these fail at once without touching memory
    (files / "huge.clique").write_text("clique 10000000 3\n")
    for argv in (("random", "--n", "10000000", "--p", "3", "--seed", "1"),
                 ("extremal", "star", "--n", "10000000", "--p", "3"),
                 ("classify", "--forest", str(files / "p7.forest"),
                  "--clique", str(files / "huge.clique"))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_cli_ramsey_limits(files, capsys):
    (files / "m2.forest").write_text(forest_text(matching(2)))
    code, out, _ = run(capsys, "ramsey", "--graph", str(files / "m2.forest"),
                       "--k", "2", "--max-n", "4")
    assert code == 1
    assert dict(report_from_text(out))["limit"] == "max_n"

    code, out, _ = run(capsys, "ramsey", "--graph", str(files / "m2.forest"),
                       "--k", "2", "--max-n", "6", "--budget", "10")
    assert code == 3
    assert dict(report_from_text(out))["limit"] == "budget"

    # C(23, 12) vertex-0 prefixes: refused by size, before any is listed
    (files / "star12.forest").write_text(forest_text(star(12)))
    code, out, _ = run(capsys, "ramsey", "--graph",
                       str(files / "star12.forest"), "--k", "12",
                       "--max-n", "20", "--reduce-symmetry")
    assert code == 3
    assert dict(report_from_text(out))["limit"] == "budget"


def test_cli_random_determinism(capsys):
    code, first, _ = run(capsys, "random", "--n", "8", "--p", "3",
                         "--seed", "5")
    assert code == 0
    assert "# scheme = splitmix64-mod" in first
    _, again, _ = run(capsys, "random", "--n", "8", "--p", "3", "--seed", "5")
    assert again == first
    _, other, _ = run(capsys, "random", "--n", "8", "--p", "3", "--seed", "6")
    assert other != first
    k = clique_from_text(first)
    assert np.array_equal(k.matrix, random_coloring(8, 3, 5).matrix)


def test_cli_report_determinism(files, capsys):
    argv = ("find", "--forest", str(files / "p7.forest"),
            "--clique", str(files / "k22.clique"))
    _, first, _ = run(capsys, *argv)
    _, again, _ = run(capsys, *argv)
    assert strip_timing(first) == strip_timing(again)
    assert first.startswith("zsr-report v1\n")


def test_cli_ramsey_jobs_and_checkpoint(files, capsys):
    ckpt = str(files / "scan.ckpt")
    code, out, _ = run(capsys, "ramsey", "--graph", str(files / "c4.forest"),
                       "--k", "2", "--max-n", "6", "--jobs", "2",
                       "--checkpoint", ckpt)
    assert code == 0
    assert dict(report_from_text(out))["value"] == "4"


def test_cli_ramsey_rejects_jobs_below_one(files, capsys):
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "ramsey",
                             "--graph", str(files / "c4.forest"),
                             "--k", "2", "--max-n", "6", "--jobs", jobs)
        assert code == 2 and out == ""
        assert err == f"error: jobs must be >= 1, got {jobs}\n"


def test_cli_selftest_single(capsys):
    code = main(["selftest", "--only", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("criterion 1") == 1 and "[pass]" in out


def test_cli_selftest_unknown_criterion(capsys):
    code, out, err = run(capsys, "selftest", "--only", "1", "--only", "99")
    assert code == 2 and out == ""
    assert err.startswith("error: no criterion 99")


def test_cli_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "zsforest.cli", "classify",
         "--forest", str(files / "p7.forest"),
         "--clique", str(files / "k22.clique")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("zsr-report v1\n")
