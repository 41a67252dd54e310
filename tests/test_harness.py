import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from binsplit import averaging, distances, harness, spectral, verify
from binsplit.cli import main as cli_main
from binsplit.graphs import cycle_graph, uniform_weights
from binsplit.harness import (ExperimentConfig, ProfileRecord,
                              complete_graph_crossing_time, level_crossing_time,
                              load_config, mixing_time, precutoff_exponents,
                              precutoff_times, read_profile_csv, read_table,
                              resolve_time_grid, run_avg_profile,
                              run_complete_cdsz, run_cutoff_bin, run_gap_sweep,
                              run_nash, window_times,
                              write_profile_csv)


def test_time_grid_modes():
    assert resolve_time_grid({"mode": "absolute", "values": [0.0, 1.0, 2.0]}, 3.0) == [0.0, 1.0, 2.0]
    assert resolve_time_grid({"mode": "trel", "multiples": [1, 2]}, 3.0) == [3.0, 6.0]
    grid = resolve_time_grid({"mode": "trel", "start": 0.5, "stop": 2.0,
                              "num": 4, "spacing": "log"}, 2.0)
    assert len(grid) == 4 and grid[0] == pytest.approx(1.0)
    tg = resolve_time_grid({"mode": "tmix_window", "C": [1.0]}, 2.0, k=16)
    tm = mixing_time(2.0, 16)
    assert tg == sorted([tm - 2.0, tm, tm + 2.0])
    with pytest.raises(ValueError):
        resolve_time_grid({"mode": "absolute", "values": [1.0, 1.0]}, 2.0)


def test_reference_times_arithmetic():
    assert mixing_time(2.0, math.e ** 2) == pytest.approx(2.0)
    lo, hi = window_times(1.5, 9, 2.0)
    assert hi - lo == pytest.approx(2 * 2.0 * 1.5)
    a, b = precutoff_exponents(5, 32)
    assert a == pytest.approx(2 * math.log(32 / 5) / math.log(32))
    assert b == pytest.approx(2 * math.log(5) / math.log(32))
    assert 1.0 <= a <= 2.0 and 0.0 < b <= 1.0
    Tp, Tm = precutoff_times(5, 32, 1.5, 1.0)
    assert Tp == pytest.approx(a * 0.75 * math.log(32) + 1.5)
    assert Tm == pytest.approx(b * 0.75 * math.log(32) - 1.5)
    assert complete_graph_crossing_time(256) == pytest.approx(math.log(256) / (256 * math.log(2)))


def test_level_crossing_interpolation():
    ts = [0.0, 1.0, 2.0]
    assert level_crossing_time(ts, [1.0, 0.5, 0.25], 0.5) == pytest.approx(1.0)
    assert level_crossing_time(ts, [1.0, 0.6, 0.2], 0.4) == pytest.approx(1.5)
    assert math.isnan(level_crossing_time(ts, [1.0, 0.9, 0.8], 0.5))


def test_profile_csv_roundtrip_and_determinism(tmp_path):
    records = [ProfileRecord("exp", 4, 0.5, 0.25, 0.123456789012345, 0.0, "exact_tv"),
               ProfileRecord("exp", 4, 1.5, 0.75, 1e-9, 0.5, "upper")]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_profile_csv(p1, records)
    write_profile_csv(p2, records)
    back = read_profile_csv(p1)
    assert back == records
    body1 = p1.read_text().splitlines()[1:]
    body2 = p2.read_text().splitlines()[1:]
    assert body1 == body2  # identical modulo the timestamp comment
    assert p1.read_text().splitlines()[0].startswith("# generated")


def test_gap_sweep_runner(tmp_path):
    cfg = ExperimentConfig(
        graph={"kind": "path", "size": 4},
        k=[1, 2, 3, 4],
        out=str(tmp_path),
        extra={"graphs": [{"kind": "path", "size": 4, "label": "path4"},
                          {"kind": "complete", "size": 4, "label": "k4"}]},
    )
    rows = run_gap_sweep(cfg)
    path4 = [r for r in rows if r["graph"] == "path4"]
    gaps = [r["gap"] for r in path4]
    assert max(abs(g / gaps[0] - 1.0) for g in gaps) <= 1e-9
    k4_k1 = next(r for r in rows if r["graph"] == "k4" and r["k"] == 1)
    assert k4_k1["gap"] == pytest.approx(2.0, abs=1e-10)
    assert all(r["status"] == "ok" for r in rows)
    cols, back = read_table(os.path.join(str(tmp_path), "gap_sweep.csv"))
    assert len(back) == len(rows)


def test_table_quotes_a_cell_with_a_comma(tmp_path):
    # a capped row's status holds a comma: it is quoted on write and read back
    # whole, while every cell without a comma is written as is
    cfg = ExperimentConfig(graph={"kind": "cycle", "size": 40}, k=[2, 9], out=str(tmp_path))
    rows = run_gap_sweep(cfg)
    assert "states, above the cap of" in rows[1]["status"]
    cols, back = read_table(tmp_path / "gap_sweep.csv")
    assert cols == ["graph", "k", "gap", "rel_dev", "status"]
    assert [r["status"] for r in back] == [r["status"] for r in rows]
    assert math.isnan(back[1]["gap"]) and back[1]["k"] == 9
    lines = (tmp_path / "gap_sweep.csv").read_text().splitlines()
    assert lines[2] == f"cycle,2,{rows[0]['gap']!r},{rows[0]['rel_dev']!r},ok"
    assert lines[3] == f'cycle,9,nan,nan,"{rows[1]["status"]}"'


def test_gap_sweep_random_conductance_instance():
    rng = np.random.default_rng(123)
    cond = rng.uniform(0.5, 2.0, size=5).tolist()
    pi_vals = rng.uniform(0.5, 1.5, size=5).tolist()
    cfg = ExperimentConfig(
        graph={"kind": "cycle", "size": 5, "conductance": cond},
        weights={"kind": "values", "values": pi_vals},
        k=[1, 2, 3],
    )
    rows = run_gap_sweep(cfg)
    gaps = [r["gap"] for r in rows]
    assert max(abs(g / gaps[0] - 1.0) for g in gaps) <= 1e-9


@pytest.mark.parametrize("restarts, sparse", [(None, ["lanczos"]),
                                              (1, ["lanczos", "shift-invert"])],
                         ids=["lanczos", "shift-invert"])
def test_gap_sweep_asks_for_eigenvalues_only(restarts, sparse, monkeypatch):
    # the sweep reads only the gaps: no dense or sparse solve computes an
    # eigenvector, and the k = 1 rows still compare equal bits
    calls, eigh, eigsh = [], spectral.eigh, spectral.eigsh

    def eigh_spy(*args, **kwargs):
        calls.append(("eigh", not kwargs.get("eigvals_only", False)))
        return eigh(*args, **kwargs)

    def eigsh_spy(*args, **kwargs):
        calls.append(("shift-invert" if "sigma" in kwargs else "lanczos",
                      kwargs.get("return_eigenvectors", True), kwargs["k"]))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigh", eigh_spy)
    monkeypatch.setattr(spectral, "eigsh", eigsh_spy)
    if restarts is not None:
        monkeypatch.setattr(spectral, "LANCZOS_RESTARTS", restarts)
    # k = 1, its single-particle reference and k = 2 are dense; k = 5 has 792
    # states, above the dense cutoff
    cfg = ExperimentConfig(graph={"kind": "cycle", "size": 8}, k=[1, 2, 5])
    rows = run_gap_sweep(cfg)
    assert [call[0] for call in calls] == ["eigh"] * 3 + sparse
    assert not any(call[1] for call in calls)
    # each sparse solve asks for the null eigenvalue and the gap only
    assert [call[2] for call in calls[3:]] == [2] * len(sparse)
    assert rows[0]["k"] == 1 and rows[0]["rel_dev"] == 0.0
    assert all(r["status"] == "ok" for r in rows)


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("run", [run_gap_sweep, run_cutoff_bin, run_avg_profile])
def test_k_below_one_names_its_key(run, k):
    cfg = ExperimentConfig(graph={"kind": "cycle", "size": 4}, k=[2, k])
    with pytest.raises(ValueError, match="config key 'k' must be ≥ 1"):
        run(cfg)


@pytest.mark.parametrize("run, key, value, bound", [
    (run_complete_cdsz, "replicas", 1, 2),
    (run_avg_profile, "replicas", 50, 100),
    (run_avg_profile, "p_norm", 0.5, 1),
])
def test_replicas_and_p_norm_name_their_key(run, key, value, bound, monkeypatch):
    # rejected before any work: the runner never builds the graph
    monkeypatch.setattr(harness, "resolve_graph", None)
    with pytest.raises(ValueError, match=f"config key '{key}' must be ≥ {bound}, got {value}"):
        run(ExperimentConfig(**{key: value}))


@pytest.mark.parametrize("times, weights, message", [
    ({"mode": "trel"}, None, "'times.start' is required in mode 'trel'"),
    ({"mode": "absolute"}, None, "'times.values' is required in mode 'absolute'"),
    ({"mode": "trel", "start": 2.0, "stop": 0.5, "num": 4}, None, "'times' must give a nonempty"),
    ({"mode": "absolute", "values": [-1.0, 2.0]}, None, "'times' must give a nonempty"),
    ({"mode": "absolute", "values": [1.0]}, {"kind": "file"},
     "'weights.path' must be a file path, got None"),
])
def test_bad_time_grid_or_weights_file_names_its_key(times, weights, message):
    cfg = ExperimentConfig(graph={"kind": "cycle", "size": 4}, k=[2], times=times,
                           weights=weights or {"kind": "uniform"})
    with pytest.raises(ValueError, match=message):
        run_cutoff_bin(cfg)


@pytest.mark.parametrize("times, message", [
    ({"spacing": "logg"}, "'times.spacing' must be 'linear' or 'log', got 'logg'"),
    ({"num": 0}, "'times.num' must be ≥ 1, got 0"),
    ({"num": -1}, "'times.num' must be ≥ 1, got -1"),
    ({"spacing": "log", "start": 0.0}, "'times.start' must be > 0 for a log grid, got 0.0"),
    ({"spacing": "log", "stop": -2.0}, "'times.stop' must be > 0 for a log grid, got -2.0"),
], ids=["spacing", "num-0", "num-negative", "log-start", "log-stop"])
def test_trel_grid_field_names_its_key(times, message):
    # each is rejected before numpy sees it; a typo in the spacing used to
    # give a linear grid silently
    spec = {"mode": "trel", "start": 0.5, "stop": 2.0, "num": 4, **times}
    with pytest.raises(ValueError, match=message):
        resolve_time_grid(spec, 1.0)
    with pytest.raises(ValueError, match=message.replace("'times.", "'extra.nash_grid.")):
        resolve_time_grid(spec, 1.0, key="extra.nash_grid")


def test_unknown_weights_kind_names_its_key():
    cfg = ExperimentConfig(graph={"kind": "cycle", "size": 4}, k=[2],
                           weights={"kind": "valuez"})
    with pytest.raises(ValueError, match="config key 'weights.kind' is unknown: 'valuez'"):
        run_gap_sweep(cfg)


@pytest.mark.parametrize("multiples", [[], [-0.5, 1.0]], ids=["empty", "negative"])
def test_crossing_time_grid_names_its_key(multiples):
    # the grid in units of t_star is checked as any other grid
    cfg = ExperimentConfig(graph={"kind": "complete", "size": 64}, replicas=10,
                           times={"mode": "tstar", "multiples": multiples})
    with pytest.raises(ValueError, match="'times' must give a nonempty"):
        run_complete_cdsz(cfg)


def test_cutoff_runner_exact_mode(tmp_path):
    cfg = ExperimentConfig(
        graph={"kind": "cycle", "size": 5},
        k=[1, 4],
        times={"mode": "absolute", "values": [0.0, 0.7236, 1.4472, 2.8944, 4.3416, 8.6832]},
        out=str(tmp_path),
        seed=5,
    )
    records = run_cutoff_bin(cfg)
    from binsplit.spectral import enumerate_configs, multinomial_measure
    w = uniform_weights(5)
    for k in (1, 4):
        rows = [r for r in records if r.k == k and r.kind == "exact_tv"]
        assert [r.t for r in rows] == cfg.times["values"]
        space = enumerate_configs(5, k)
        mu = multinomial_measure(w, k, space)
        assert rows[0].value == pytest.approx(1.0 - mu[space.rank(space.configs[:1])[0]])
        vals = [r.value for r in rows]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))
    # k=1 decays like exp(-t/t_rel): no abrupt transition
    k1 = {round(r.t, 4): r.value for r in records if r.k == 1 and r.kind == "exact_tv"}
    ratio = k1[2.8944] / k1[1.4472]
    assert math.exp(-1) * 0.5 <= ratio <= math.exp(-1) * 2
    assert (tmp_path / "cutoff.csv").exists()
    assert (tmp_path / "cutoff.svg").exists()
    assert any(r.kind == "tmix" for r in records)
    assert any(r.kind == "t_plus" for r in records)


def test_cutoff_runner_bound_mode_and_precutoff_rows():
    cfg = ExperimentConfig(
        graph={"kind": "path", "size": 2},
        k=[40],  # occupation space is tiny but force bound mode via cap
        times={"mode": "absolute", "values": [1.0, 2.0]},
        seed=6,
    )
    old_cap = spectral.DEFAULT_TRANSIENT_CAP
    spectral.DEFAULT_TRANSIENT_CAP = 10
    try:
        records = run_cutoff_bin(cfg)
    finally:
        spectral.DEFAULT_TRANSIENT_CAP = old_cap
    kinds = {r.kind for r in records}
    assert "upper" in kinds and "lower" in kinds and "exact_tv" not in kinds
    uppers = {r.t: r.value for r in records if r.kind == "upper"}
    lowers = {r.t: r.value for r in records if r.kind == "lower"}
    for t in (1.0, 2.0):
        assert 0.0 <= lowers[t] <= 1.0 and 0.0 <= uppers[t] <= 1.0
        assert lowers[t] <= uppers[t] + 1e-12
    # k = 40 > n^2 = 4: the high-density annotations must be present
    assert any(r.kind == "precutoff_t_plus" for r in records)


def test_avg_profile_runner(tmp_path):
    cfg = ExperimentConfig(
        graph={"kind": "cycle", "size": 5},
        k=[4],
        times={"mode": "trel", "multiples": [0.5, 1.0, 2.0]},
        replicas=150,
        out=str(tmp_path),
        seed=7,
    )
    records = run_avg_profile(cfg)
    means = [r for r in records if r.kind == "wasserstein"]
    scaled = [r for r in records if r.kind == "wasserstein_scaled"]
    lower = {r.t: r.value for r in records if r.kind == "lower"}
    assert len(means) == len(scaled) == 3
    for m, s in zip(means, scaled):
        assert s.value == pytest.approx(2.0 * m.value)
        assert lower[m.t] <= m.value + 4 * m.stderr
    back = read_profile_csv(tmp_path / "avg_profile.csv")
    assert back == records
    with pytest.raises(ValueError):
        run_avg_profile(ExperimentConfig(replicas=10))


def test_avg_profile_scaled_value_decreasing_in_window_constant():
    # larger window constants push further past the mixing time
    cfg = ExperimentConfig(
        graph={"kind": "cycle", "size": 5},
        k=[64],
        times={"mode": "tmix_window", "C": [1.0, 2.0, 3.0]},
        replicas=300,
        seed=8,
    )
    records = run_avg_profile(cfg)
    t_plus_vals = sorted((r.t, r.value) for r in records
                         if r.kind == "wasserstein_scaled")
    tm = mixing_time(single_t_rel(), 64)
    after = [v for t, v in t_plus_vals if t > tm]
    assert all(b < a for a, b in zip(after, after[1:]))


def single_t_rel():
    from binsplit.distances import single_particle_spectrum
    from binsplit.graphs import cycle_graph
    return single_particle_spectrum(cycle_graph(5), uniform_weights(5)).t_rel


def test_cdsz_runner_examples(tmp_path):
    cfg = ExperimentConfig(
        graph={"kind": "complete", "size": 64},
        times={"mode": "tstar", "multiples": [0.5, 1.0, 1.5]},
        replicas=400,
        out=str(tmp_path),
        seed=9,
    )
    records = run_complete_cdsz(cfg)
    prof = {round(r.t_normalized, 3): r.value for r in records if r.kind == "wasserstein"}
    assert prof[0.5] > prof[1.0] > prof[1.5]
    assert any(r.kind == "crossing" for r in records)
    assert (tmp_path / "cdsz.csv").exists()
    with pytest.raises(ValueError):
        run_complete_cdsz(ExperimentConfig(graph={"kind": "complete", "size": 32}))


def test_cdsz_profile_shape_at_large_n():
    # early-time fingerprint: within 0.2 of the maximal distance 2 at half the
    # reference time; past it the profile has dropped well below the crossing
    # level (the asymptotic value at 1.5x is 0; at n=1024 it measures ~0.35)
    cfg = ExperimentConfig(
        graph={"kind": "complete", "size": 1024},
        times={"mode": "tstar", "multiples": [0.5, 1.5]},
        replicas=300,
        seed=10,
    )
    records = run_complete_cdsz(cfg)
    prof = {round(r.t_normalized, 3): r.value for r in records if r.kind == "wasserstein"}
    assert abs(prof[0.5] - 2.0) <= 0.2
    assert prof[1.5] <= 0.4


def test_crossing_benchmark_config_memory_peak():
    # the mc_crossing benchmark's config (n = 128, 1,500 replicas, 13 times):
    # the lockstep groups, their chunks and the observe blocks, with the
    # graph, its tables and the CSV rows, stay within 2.75 MiB of traced
    # memory.  The second run is measured; the first in a process also pays
    # one-time setup
    cfg = ExperimentConfig(
        graph={"kind": "complete", "size": 128},
        weights={"kind": "uniform"},
        times={"mode": "tstar", "multiples": [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
                                              1.1, 1.2, 1.3, 1.4, 1.5, 1.6]},
        replicas=1500,
        seed=1,
    )
    run_complete_cdsz(cfg)
    tracemalloc.start()
    try:
        run_complete_cdsz(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * 2 ** 20


def test_nash_runner(tmp_path):
    cfg = ExperimentConfig(
        out=str(tmp_path),
        extra={"graphs": [{"kind": "cycle", "size": 32, "label": "c32"},
                          {"kind": "complete", "size": 64, "label": "k64"}]},
    )
    rows = run_nash(cfg)
    by = {r["graph"]: r for r in rows}
    assert by["c32"]["finite_dimensional"] in (True, "True")
    assert by["k64"]["finite_dimensional"] in (False, "False")
    assert 0.8 <= float(by["c32"]["d_hat"]) <= 1.3
    cols, back = read_table(tmp_path / "nash_summary.csv")
    assert len(back) == 2


def test_nash_runner_solves_once_per_graph(tmp_path, monkeypatch):
    # one dense eigendecomposition per graph serves t_rel, the grid, the
    # profile and the diagnosis; no spectral_gap solve runs
    calls, eigh = [], distances.eigh

    def eigh_spy(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    def no_gap_solve(*args, **kwargs):
        raise AssertionError("spectral_gap called on the Nash path")

    monkeypatch.setattr(distances, "eigh", eigh_spy)
    monkeypatch.setattr(distances, "spectral_gap", no_gap_solve)
    monkeypatch.setattr(spectral, "spectral_gap", no_gap_solve)
    cfg = ExperimentConfig(
        out=str(tmp_path),
        extra={"graphs": [{"kind": "cycle", "size": 32, "label": "c32"},
                          {"kind": "torus", "dims": [4, 4], "label": "t4x4"}]},
    )
    rows = run_nash(cfg)
    assert calls == [(32, 32), (16, 16)]
    assert [r["finite_dimensional"] for r in rows] == [True, True]


def test_nash_runner_rejects_a_one_vertex_graph():
    with pytest.raises(ValueError, match="one-vertex graph"):
        run_nash(ExperimentConfig(graph={"kind": "path", "size": 1}))


def test_nash_runner_writes_the_configured_grid(tmp_path):
    grid_spec = {"mode": "trel", "start": 0.02, "stop": 1.0, "num": 12, "spacing": "log"}
    cfg = ExperimentConfig(graph={"kind": "cycle", "size": 32}, out=str(tmp_path),
                           extra={"nash_grid": grid_spec})
    run_nash(cfg)
    t_rel = distances.single_particle_spectrum(cycle_graph(32), uniform_weights(32)).t_rel
    grid = resolve_time_grid(grid_spec, t_rel, key="extra.nash_grid")
    back = read_profile_csv(tmp_path / "nash_profiles.csv")
    assert [r.t for r in back] == grid
    assert [r.t_normalized for r in back] == [t / t_rel for t in grid]
    assert all(r.kind == "profile:cycle" for r in back)


def test_verify_battery_passes_and_counts():
    code, rows = verify.run_verify()
    assert code == 0
    assert len(rows) == len(verify.VERIFY_CHECKS)
    assert all(r["pass"] for r in rows)


def test_verify_writes_jsonl(tmp_path):
    code, rows = verify.run_verify(out=str(tmp_path))
    lines = (tmp_path / "verify.jsonl").read_text().splitlines()
    assert len(lines) == len(rows)
    parsed = [json.loads(ln) for ln in lines]
    assert {p["check"] for p in parsed} == {r["check"] for r in rows}


def test_verify_mutation_detects_sign_error(monkeypatch):
    real = averaging.edge_update

    def broken(eta, edge, weights):
        out = real(eta, edge, weights)
        x, y = int(edge[0]), int(edge[1])
        out[x], out[y] = out[y], out[x]  # swapped shares: wrong split direction
        return out

    monkeypatch.setattr(averaging, "edge_update", broken)
    code, rows = verify.run_verify()
    assert code != 0
    inter = next(r for r in rows if r["check"] == "intertwining")
    assert not inter["pass"]
    assert inter["residual"] > 1e-3


def test_config_load_and_cli(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "graph: {kind: path, size: 4}\n"
        "k: [1, 2]\n"
        "seed: 3\n"
        "extra:\n  graphs:\n    - {kind: path, size: 4, label: p4}\n"
    )
    cfg = load_config(cfg_path)
    assert cfg.graph == {"kind": "path", "size": 4}
    assert cfg.k == [1, 2]
    code = cli_main(["gap", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "gap" in out and "ok" in out
    code2 = cli_main(["verify"])
    assert code2 == 0


def test_load_config_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "typo.yaml"
    cfg_path.write_text("graph: {kind: path, size: 4}\nreplcas: 1000\n")
    with pytest.raises(ValueError, match="replcas"):
        load_config(cfg_path)
    cfg_path.write_text("graph: {kind: path, size: 4}\nextra: {replcas: 1000}\n")
    assert load_config(cfg_path).extra == {"replcas": 1000}


def test_load_config_coerces_numbers(tmp_path):
    cfg_path = tmp_path / "num.yaml"
    cfg_path.write_text("tol: 1e-09\nreplicas: 1000\nk: [2, 3]\nwindow_C: [1, 2.5]\n")
    cfg = load_config(cfg_path)
    assert cfg.tol == 1e-9 and isinstance(cfg.tol, float)
    assert cfg.replicas == 1000 and isinstance(cfg.replicas, int)
    assert cfg.k == [2, 3] and cfg.window_C == [1.0, 2.5]
    for text, key in (("replicas: many\n", "replicas"), ("tol: [1]\n", "tol"),
                      ("seed: 2.5\n", "seed"), ("replicas: 1e3\n", "replicas"),
                      ("k: [2, two]\n", "k"),
                      ("k: 4\n", "k")):
        cfg_path.write_text(text)
        with pytest.raises(ValueError, match=key):
            load_config(cfg_path)


def test_cli_cutoff_and_nash(tmp_path, capsys):
    cfg_path = tmp_path / "cut.yaml"
    cfg_path.write_text(
        "graph: {kind: cycle, size: 4}\n"
        "k: [2]\n"
        "times: {mode: trel, multiples: [0.5, 1.0, 2.0]}\n"
    )
    assert cli_main(["cutoff", "--config", str(cfg_path), "--out", str(tmp_path),
                     "--seed", "42"]) == 0
    assert (tmp_path / "cutoff.csv").exists()
    nash_cfg = tmp_path / "nash.yaml"
    nash_cfg.write_text("graph: {kind: cycle, size: 32}\n")
    assert cli_main(["nash", "--config", str(nash_cfg)]) == 0
    assert "finite_dimensional" in capsys.readouterr().out


def test_profile_runner_reruns_byte_identical(tmp_path):
    # same config and seed: byte-identical CSV bodies
    bodies = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = ExperimentConfig(
            graph={"kind": "cycle", "size": 6},
            k=[4],
            times={"mode": "trel", "multiples": [0.5, 1.0, 2.0]},
            replicas=120,
            out=str(out),
            seed=21,
        )
        run_avg_profile(cfg)
        bodies.append((out / "avg_profile.csv").read_text().splitlines()[1:])
    assert bodies[0] == bodies[1]


def test_thread_knob_is_gone(tmp_path, capsys):
    cfg_path = tmp_path / "threads.yaml"
    cfg_path.write_text("graph: {kind: cycle, size: 6}\nthreads: 2\n")
    with pytest.raises(ValueError, match="threads"):
        load_config(cfg_path)
    cfg_path.write_text("graph: {kind: cycle, size: 6}\nprocess: bin\n")
    with pytest.raises(ValueError, match="process"):
        load_config(cfg_path)
    with pytest.raises(SystemExit):
        cli_main(["avg-profile", "--threads", "2"])
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("graph, values, as_file, run", [
    ({"kind": "cycle", "size": 4}, [1, 2, 3], False, run_gap_sweep),
    ({"kind": "complete", "size": 64}, list(range(1, 66)), False, run_complete_cdsz),
    ({"kind": "cycle", "size": 4}, [1, 2, 3], True, run_gap_sweep),
])
def test_weights_of_wrong_length_name_their_key(tmp_path, graph, values, as_file, run):
    weights = {"kind": "values", "values": values}
    if as_file:
        (tmp_path / "w.txt").write_text("".join(f"{v}\n" for v in values))
        weights = {"kind": "file", "path": str(tmp_path / "w.txt")}
    cfg = ExperimentConfig(graph=graph, k=[1], replicas=10, weights=weights)
    message = f"'weights' has {len(values)} values for a graph of {graph['size']} vertices"
    with pytest.raises(ValueError, match=message):
        run(cfg)


@pytest.mark.parametrize("eta0, message", [
    ({"dirac": 9}, "'eta0' puts its dirac on vertex 9 of a graph of 8 vertices"),
    ([0.5, 0.5], r"'eta0' has shape \(2,\) for a graph of 8 vertices"),
    ([[0.5] * 4, [0.0] * 4], r"'eta0' has shape \(2, 4\) for a graph of 8 vertices"),
])
def test_eta0_out_of_range_or_wrong_length_names_its_key(eta0, message):
    cfg = ExperimentConfig(graph={"kind": "cycle", "size": 8}, eta0=eta0, replicas=100)
    with pytest.raises(ValueError, match=message):
        run_avg_profile(cfg)


@pytest.mark.parametrize("graph, eta0, message", [
    ({"kind": "cycle"}, None, "'graph' of kind 'cycle' needs field 'size'"),
    ({"kind": "torus", "dims": 5}, None, "'graph.dims' must be a list, got 5"),
    ({"kind": "cycle", "sise": 5}, None,
     "'graph' of kind 'cycle' needs field 'size' and has unknown field 'sise'"),
    ({"kind": "percolation_box", "dims": [4, 4], "seed": 1}, None,
     "'graph' of kind 'percolation_box' needs field 'p_open'"),
    ({"kind": "cycle", "size": 8}, {"dirc": 1}, r"'eta0' must be a vector or \{dirac: vertex\}"),
    # the builders' own checks, reached through the config
    ({"kind": "cycle", "size": 1}, None, "'graph': cycle size must be >= 2"),
    ({"kind": "torus", "dims": [0, 3]}, None, "'graph': torus dims must be >= 1"),
    ({"kind": "sierpinski", "level": 9}, None, "'graph': level capped at 7"),
    ({"kind": "percolation_box", "dims": [4, 4], "p_open": 1.5, "seed": 1}, None,
     r"'graph': p_open must lie in \(0, 1\]"),
    ({"kind": "cycle", "size": 4, "conductance": -1}, None,
     "'graph': conductance must be positive"),
    ({"kind": "cycle", "size": 4, "conductance": [1, 2]}, None,
     "'graph': need 4 conductances, got 2"),
    ({"kind": "complete", "size": 32}, None,
     "'graph' has 32 vertices; the crossing experiment needs >= 64"),
])
def test_bad_graph_field_or_eta0_names_its_key(graph, eta0, message):
    cfg = ExperimentConfig(graph=graph, eta0=eta0, replicas=100)
    # the vertex floor belongs to the crossing experiment alone
    run = run_complete_cdsz if graph["kind"] == "complete" else run_avg_profile
    with pytest.raises(ValueError, match=message):
        run(cfg)


@pytest.mark.parametrize("graph, weights, eta0, message", [
    ({"kind": "cycle", "size": "5"}, None, None, "'graph.size' must be an integer, got '5'"),
    ({"kind": "sierpinski", "level": "x"}, None, None, "'graph.level' must be an integer, got 'x'"),
    ({"kind": "cycle", "size": 2.5}, None, None, "'graph.size' must be an integer, got 2.5"),
    ({"kind": "percolation_box", "dims": [4, 4], "p_open": "a", "seed": 1}, None, None,
     "'graph.p_open' must be a number, got 'a'"),
    ({"kind": "cycle", "size": 8}, None, {"dirac": "a"}, "'eta0.dirac' must be an integer, got 'a'"),
    ({"kind": "cycle", "size": 8}, {"kind": "values"}, None,
     "'weights.values' must be a list, got None"),
])
def test_mistyped_config_field_names_its_key(graph, weights, eta0, message):
    cfg = ExperimentConfig(graph=graph, weights=weights or {"kind": "uniform"}, eta0=eta0,
                           replicas=100)
    with pytest.raises(ValueError, match=message):
        run_avg_profile(cfg)
    # a numpy integer is an integer
    assert harness.resolve_graph({"kind": "cycle", "size": np.int64(5)}).n == 5


@pytest.mark.parametrize("key", ["weights", "graph.conductance"])
def test_cdsz_rejects_a_start_that_symmetry_does_not_carry(key):
    # the pile at 0 stands for every Dirac start only on a vertex-transitive graph
    graph, weights = {"kind": "complete", "size": 64}, {"kind": "uniform"}
    if key == "weights":
        weights = {"kind": "values", "values": [2.0] + [1.0] * 63}
    else:
        graph["conductance"] = [2.0] + [1.0] * (64 * 63 // 2 - 1)
    cfg = ExperimentConfig(graph=graph, weights=weights, replicas=10,
                           times={"mode": "tstar", "multiples": [1.0]})
    with pytest.raises(ValueError, match=f"config key '{key}' breaks the vertex symmetry"):
        run_complete_cdsz(cfg)


def test_negative_window_constant_is_rejected(tmp_path, monkeypatch):
    # rejected before any work: the runner never builds the graph
    monkeypatch.setattr(harness, "resolve_graph", None)
    cfg = ExperimentConfig(graph={"kind": "cycle", "size": 4}, k=[3], window_C=[1.0, -1.0])
    with pytest.raises(ValueError, match="'window_C' must be nonnegative"):
        run_cutoff_bin(cfg)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("graph: {kind: cycle, size: 4}\nk: [3]\nwindow_C: [-1.0]\n")
    with pytest.raises(ValueError, match="'window_C' must be nonnegative"):
        run_cutoff_bin(load_config(cfg_path))
