import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import diskpath
from diskpath.cli import GeneratorSpec, generate, main
from diskpath.errors import InputError
from diskpath.geometry import build_udg, parse_instance
from diskpath.render import render_svg

GOLDEN = Path(__file__).parent / "golden" / "six_disks.svg"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_file(tmp_path, argv_tail, name="inst.txt"):
    path = tmp_path / name
    code = main(["gen"] + argv_tail + ["--out", str(path)])
    assert code == 0
    return path


def test_gen_is_deterministic(tmp_path, capsys):
    a = gen_file(tmp_path, ["--kind", "uniform", "--n", "40", "--seed", "9"],
                 "a.txt")
    b = gen_file(tmp_path, ["--kind", "uniform", "--n", "40", "--seed", "9"],
                 "b.txt")
    assert a.read_bytes() == b.read_bytes()
    c = gen_file(tmp_path, ["--kind", "uniform", "--n", "40", "--seed", "10"],
                 "c.txt")
    assert a.read_bytes() != c.read_bytes()


def test_chain_generator_is_a_path_graph():
    pts = generate(GeneratorSpec(kind="chain", n=5, spacing=1.9))
    g = build_udg(pts)
    degrees = sorted(g.degree(v) for v in range(5))
    assert g.m == 4 and degrees == [1, 1, 2, 2, 2]


def test_uniform_generator_round_trips(tmp_path, capsys):
    path = gen_file(tmp_path, ["--kind", "uniform", "--n", "100",
                               "--box", "10", "--seed", "3"])
    disks = parse_instance(path.read_text())
    assert len(disks) == 100


def test_generator_spec_validation():
    with pytest.raises(InputError):
        GeneratorSpec(kind="blob", n=3)
    with pytest.raises(InputError):
        GeneratorSpec(kind="uniform", n=0)
    with pytest.raises(InputError):
        GeneratorSpec(kind="uniform", n=3, box=0.0)
    with pytest.raises(InputError):
        GeneratorSpec(kind="uniform", n=3, seed=2 ** 64)
    with pytest.raises(InputError):
        GeneratorSpec(kind="clusters", n=3, clusters=0)


def test_lattice_and_cluster_kinds_have_n_points():
    assert len(generate(GeneratorSpec(kind="lattice", n=7))) == 7
    assert len(generate(GeneratorSpec(kind="clusters", n=11, seed=4))) == 11


def test_solve_exit_codes_and_key_value_line(tmp_path, capsys, no_walk):
    inst = gen_file(tmp_path, ["--kind", "chain", "--n", "6"])
    capsys.readouterr()
    code, out, _ = run(["solve", str(inst), "--k", "6"], capsys)
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert last.startswith("answer=yes branch=dp k=6 variant=path")
    code, out, _ = run(["solve", str(inst), "--k", "7"], capsys)
    assert code == 1
    assert "answer:  no" in out


def test_solve_witness_revalidates(tmp_path, capsys):
    inst = gen_file(tmp_path, ["--kind", "uniform", "--n", "9", "--box", "4",
                               "--seed", "21"])
    capsys.readouterr()
    code, out, _ = run(["solve", str(inst), "--k", "3", "--witness"], capsys)
    if code == 0:
        line = [l for l in out.splitlines() if l.startswith("witness:")][0]
        seq = [int(tok) for tok in line.split()[1:]]
        g = build_udg(parse_instance(inst.read_text()))
        assert len(seq) >= 3 and len(set(seq)) == len(seq)
        assert all(g.has_edge(u, v) for u, v in zip(seq, seq[1:]))


def test_solve_json_schema(tmp_path, capsys):
    inst = gen_file(tmp_path, ["--kind", "chain", "--n", "5"])
    capsys.readouterr()
    code, out, _ = run(["solve", str(inst), "--k", "4", "--witness",
                        "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["answer", "branch", "k", "variant", "n", "m",
                         "delta", "width", "certified", "witness", "timings"]
    assert doc["answer"] == "yes"
    assert doc["certified"] is True
    # the solver reports its best path whole, not cut down to k
    assert doc["witness"] == [0, 1, 2, 3, 4]
    assert all(isinstance(v, float) for v in doc["timings"].values())


def test_solve_json_reports_witness_branch(tmp_path, capsys):
    inst = gen_file(tmp_path, ["--kind", "chain", "--n", "7"])
    capsys.readouterr()
    code, out, _ = run(["solve", str(inst), "--k", "3", "--witness",
                        "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["branch"] == "witness"
    assert doc["width"] is None and doc["certified"] is True
    # the walk comes back whole, not cut at k
    assert doc["witness"] == [0, 1, 2, 3, 4, 5, 6]


def test_solve_json_labels_forced_shortcut(tmp_path, capsys, no_walk):
    inst = gen_file(tmp_path, ["--kind", "chain", "--n", "5"])
    capsys.readouterr()
    code, out, _ = run(["solve", str(inst), "--k", "3", "--tw-threshold",
                        "0", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] == "yes"
    assert doc["branch"] == "shortcut"
    assert doc["certified"] is False
    assert "witness" not in doc


def test_solve_json_deterministic_modulo_timings(tmp_path, capsys):
    inst = gen_file(tmp_path, ["--kind", "uniform", "--n", "12", "--box",
                               "5", "--seed", "77"])
    capsys.readouterr()
    docs = []
    for _ in range(2):
        code, out, _ = run(["solve", str(inst), "--k", "4", "--witness",
                            "--json"], capsys)
        doc = json.loads(out)
        doc.pop("timings")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_malformed_instance_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 0\n1 nope\n2 0\n")
    code, _, err = run(["solve", str(bad), "--k", "1"], capsys)
    assert code == 2
    assert "line 3" in err


def test_missing_file_is_an_error(tmp_path, capsys):
    code, _, err = run(["solve", str(tmp_path / "nope.txt"), "--k", "1"],
                       capsys)
    assert code == 2 and "nope.txt" in err


def test_verify_agrees_on_small_instance(tmp_path, capsys):
    inst = gen_file(tmp_path, ["--kind", "uniform", "--n", "10", "--box",
                               "4", "--seed", "5"])
    capsys.readouterr()
    for variant in ("path", "cycle"):
        code, out, _ = run(["verify", str(inst), "--all-k",
                            "--variant", variant], capsys)
        assert code == 0
        assert out.count("agree") == 10 and "DISAGREE" not in out


def test_verify_refuses_large_instance(tmp_path, capsys):
    inst = gen_file(tmp_path, ["--kind", "uniform", "--n", "20", "--box",
                               "8", "--seed", "5"])
    capsys.readouterr()
    code, _, err = run(["verify", str(inst), "--k", "2"], capsys)
    assert code == 2 and "caps at 14" in err


def test_verify_single_vertex(tmp_path, capsys):
    inst = tmp_path / "one.txt"
    inst.write_text("1\n0.5 0.5\n")
    code, out, _ = run(["verify", str(inst), "--k", "1"], capsys)
    assert code == 0 and "pipeline=yes oracle=yes" in out


def test_render_matches_golden(tmp_path, capsys):
    pts = [(0.4, 0.4), (1.3, 0.7), (2.6, 0.5), (2.9, 1.8), (1.2, 1.9),
           (4.7, 0.3)]
    svg = render_svg(pts, witness=[0, 1, 2, 3], variant="path")
    assert svg == GOLDEN.read_text()


def test_render_without_witness_is_valid_xml(tmp_path, capsys):
    inst = gen_file(tmp_path, ["--kind", "uniform", "--n", "15", "--box",
                               "6", "--seed", "8"])
    out_svg = tmp_path / "plain.svg"
    capsys.readouterr()
    code, _, _ = run(["render", str(inst), "--out", str(out_svg)], capsys)
    assert code == 0
    ET.fromstring(out_svg.read_text())


def test_render_draws_exactly_the_occupied_cells():
    svg = render_svg([(0.2, 0.2), (3.7, 0.4)])
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    rects = [r for r in root.iter(ns + "rect") if r.get("width") != "100%"]
    labels = [t.text for t in root.iter(ns + "text")]
    assert len(rects) == 2
    assert "(1,1)" in labels and "(4,1)" in labels


def test_render_cycle_witness_closes_loop(tmp_path):
    pts = [(0.0, 0.0), (1.5, 0.0), (0.75, 1.2)]
    svg = render_svg(pts, witness=[0, 1, 2], variant="cycle")
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    overlay = [g for g in root.iter(ns + "g")
               if g.get("stroke") == "#1f77b4"][0]
    assert len(list(overlay)) == 3


def test_console_script_entry_point(tmp_path):
    # the child imports the same diskpath as this process, installed or not
    src = str(Path(diskpath.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    inst = tmp_path / "chain.txt"
    result = subprocess.run(
        [sys.executable, "-m", "diskpath.cli", "gen", "--kind", "chain",
         "--n", "4", "--out", str(inst)],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    result = subprocess.run(
        [sys.executable, "-m", "diskpath.cli", "solve", str(inst),
         "--k", "4"], capture_output=True, text=True, env=env)
    assert result.returncode == 0
