import json

import pytest

from crossdimer import cli, matchcount
from crossdimer.cli import main
from crossdimer.families import InvalidParams
from crossdimer.harness import CacheCorrupt


def test_count_command(capsys):
    assert main(["count", "TR:1,2", "--method", "fkt"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == "100"
    assert out["factors"]["2"] == 2 and out["factors"]["5"] == 2


def test_count_weighted(capsys):
    assert main(["count", "A1:2,2,0", "--weights", "1,1,1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == "5"
    # an integral weighted count is factored whichever method counts it
    outs = {}
    for method in ("brute", "fkt"):
        assert main(["count", "A1:2,2,0", "--weights", "3,5,7",
                     "--method", method]) == 0
        outs[method] = json.loads(capsys.readouterr().out)
        assert outs[method].pop("method") == method
    assert outs["brute"] == outs["fkt"]
    assert outs["fkt"]["count"] == "57674421" and outs["fkt"]["factors"]


def test_formula_command(capsys):
    assert main(["formula", "A1:9,8,2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == "302500000000"
    assert main(["formula", "TR:2,4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == "12100000000"
    # inside theorem 1.3 (the theorem13 suite counts it as 5)
    assert main(["formula", "TA:1,1,0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "5"


def test_gen_command(capsys, tmp_path):
    svg = str(tmp_path / "out.svg")
    assert main(["gen", "AR:2,2@full", "--svg", svg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["vertices"]) == 12
    assert open(svg).read().startswith("<?xml")


def test_gen_weights(capsys, tmp_path):
    # --weights draws one label per weighted edge of the cross weighting
    svg = tmp_path / "w.svg"
    argv = ["gen", "A1:2,2,0", "--svg", str(svg), "--weights", "3,5,7"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert svg.read_text().count("<text") == len(doc["weights"]) > 0
    assert main(["gen", "A1:2,2,0", "--weights", "garbage"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1


def test_probe_command(capsys):
    rc = main(["probe", "A1:2,2,0", "--points", "3,5,7;5,7,3;7,3,5"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["consistent"]


def test_usage_error_exit_code(capsys, tmp_path, monkeypatch):
    assert main(["count", "XX:1,1"]) == 2
    assert main(["gen", "A1:1,1,0"]) == 2
    assert main(["formula", "TR"]) == 2
    assert main(["formula", "TR:1,1"]) == 2
    # family triples outside the domain that `count` accepts
    assert main(["formula", "A1:9,1,0"]) == 2
    assert main(["formula", "F2:1,1,5"]) == 2
    assert main(["probe", "A1", "--points", "3,5,7"]) == 2
    # trimmed rectangles outside theorem 1.3: no valid core, cut past corner
    assert main(["formula", "TB:1,1,0,0"]) == 2
    assert main(["formula", "TA:1,2,2,1"]) == 2
    assert main(["probe", "A1:2,2,0", "--points", "3,5"]) == 2
    assert main(["count", "A1:2,2,0", "--weights", "1/0,1,1"]) == 2
    # a config file must be a JSON object of integer SuiteConfig fields
    unknown, array = tmp_path / "unknown.json", tmp_path / "array.json"
    unknown.write_text('{"perimeter_cap": 12, "no_such_key": 1}')
    array.write_text("[12]")
    fraction, flag = tmp_path / "fraction.json", tmp_path / "flag.json"
    fraction.write_text('{"recurrence_grid": 2.5}')
    flag.write_text('{"perimeter_cap": true}')
    # an integer cache path would be opened as a file descriptor
    fd = tmp_path / "fd.json"
    fd.write_text('{"cache_path": 1}')
    assert main(["verify", "sanity", "--config", str(unknown)]) == 2
    assert main(["verify", "sanity", "--config", str(array)]) == 2
    assert main(["verify", "recurrences", "--config", str(fraction)]) == 2
    assert main(["verify", "sanity", "--config", str(flag)]) == 2
    assert main(["verify", "theorem13", "--config", str(fd)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 16 and "(3, 5)" in err[-7]
    assert "b=1 < 2" in err[4] and "b=1 < 2" in err[5]
    assert "no_such_key" in err[-5] and "mapping" in err[-4]
    assert "recurrence_grid" in err[-3] and "2.5" in err[-3]
    assert "perimeter_cap" in err[-2] and "True" in err[-2]
    assert "cache_path" in err[-1] and err[-1].endswith("not 1")
    # the vertex caps are the package's BRUTE_CAP and FKT_CAP, not settings
    for key in ("vertex_cap_brute", "vertex_cap_fkt"):
        cap = tmp_path / f"{key}.json"
        cap.write_text(f'{{"{key}": 44}}')
        assert main(["verify", "sanity", "--config", str(cap)]) == 2
        assert key in capsys.readouterr().err
    # a torn cache line and conflicting cached counts name the file line
    torn, clash = tmp_path / "torn.jsonl", tmp_path / "clash.jsonl"
    torn.write_text('{"key": "k1", "count": "5"}\n{"key": "k2", "cou')
    clash.write_text('{"key": "k", "count": "5"}\n\n'
                     '{"key": "k", "count": "6"}\n')
    monkeypatch.setenv("CROSSDIMER_CACHE", str(torn))
    assert main(["verify", "theorem13"]) == 2
    monkeypatch.setenv("CROSSDIMER_CACHE", str(clash))
    assert main(["verify", "theorem13"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert str(torn) in err[0] and "line 2," in err[0]
    assert str(clash) in err[1] and "line 3:" in err[1]


def test_malformed_inputs_raise_invalid_params(capsys, tmp_path,
                                               monkeypatch):
    # each exits 2 with one stderr line, through the named class alone
    bad, zero = tmp_path / "bad.json", tmp_path / "zero.json"
    bad.write_text("{bad")
    zero.write_text('{"perimeter_cap": 0}')
    latin, huge = tmp_path / "latin.json", tmp_path / "huge.json"
    latin.write_bytes(b'{"seed": "\xff"}')
    huge.write_text('{"seed": ' + "1" * 5000 + "}")
    cache, cached = tmp_path / "cache.jsonl", tmp_path / "cached.json"
    cache.write_bytes(b"\xff\xfe\xfa\n")
    cached.write_text(json.dumps({"cache_path": str(cache)}))
    for argv, cls in (
            (["count", "A1:2,2,0", "--weights", "a,b,c"], InvalidParams),
            (["count", "A1:2,2,0", "--weights", "0,5,7"], InvalidParams),
            (["gen", "A1:2,2,0", "--weights=-1,5,7"], InvalidParams),
            (["probe", "A1:2,2,0", "--points", "x,5,7"], InvalidParams),
            (["probe", "A1:2,2,0", "--points", "3,5,7;"], InvalidParams),
            (["probe", "A1:2,2,0@full", "--points", "3,5,7"], InvalidParams),
            (["verify", "nosuch"], InvalidParams),
            (["verify", "sanity", "--config", str(bad)], InvalidParams),
            (["verify", "sanity", "--config", str(zero)], InvalidParams),
            (["verify", "sanity", "--config", str(latin)], InvalidParams),
            (["verify", "sanity", "--config", str(huge)], InvalidParams),
            (["verify", "theorem11", "--config", str(cached)], CacheCorrupt)):
        monkeypatch.setattr(cli, "CrossdimerError", cls)
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert len(captured.err.splitlines()) == 1, argv


def test_inexact_arithmetic_escapes_main(monkeypatch):
    # an exactness guard that fails is a fault, not an input error
    def fail(*args):
        raise matchcount.InexactArithmetic("forced")

    monkeypatch.setattr(matchcount, "_crt", fail)
    with pytest.raises(matchcount.InexactArithmetic):
        main(["count", "TR:1,2", "--method", "fkt"])


def test_verify_exit_code(capsys):
    assert main(["verify", "theorem11"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    recs = [json.loads(l) for l in lines]
    assert all(r["pass"] for r in recs)


def test_count_weights_errors(capsys):
    # weights on a graph off the cross lattice, and the wrong number of
    # weight values, exit 2 with one stderr line each
    for argv in (["count", "AR:2,2@full", "--weights", "3,5,7"],
                 ["count", "A1:2,2,0@full", "--weights", "3,5,7"],
                 ["count", "A1:2,2,0", "--weights", "1,2"],
                 ["count", "A1:2,2,0", "--weights", "3,5,7,9"]):
        assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 4
    assert all("not a cross-lattice edge" in line for line in err[:2])
    assert all("--weights x,y,z" in line for line in err[2:])


def test_oversized_specs_exit_2_before_building(capsys, monkeypatch):
    # a bound on the points from the parameters alone refuses each spec:
    # nothing is stacked and no point set is listed
    from crossdimer import families

    def reached(*args, **kwargs):
        raise AssertionError("an oversized spec was built")

    monkeypatch.setattr(families, "stacked_grids", reached)
    monkeypatch.setattr(families.Spec, "_point_set", reached)
    specs = ("TR:100000,200000", "TR:120,240", "TA:300,400,0,0",
             "TB:300,400,0,0", "AR:600,600@full", "AAR:600,600",
             "A1:0,150,0", "F3:0,150,0", f"A2:0,{10 ** 30},0")
    for spec in specs:
        assert main(["count", spec]) == 2
        assert main(["gen", spec]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 * len(specs)
    assert all("build cap of 1048576" in line for line in err)
    assert err[0].startswith("error: TR:100000,200000 is too large")
