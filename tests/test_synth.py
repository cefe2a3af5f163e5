import dataclasses
import io
import json

import numpy as np
import pytest

from zombiescan import SynthConfig, ValidationError, generate
from zombiescan.ingest import parse_profiles, parse_uidlist, parse_weibo_network
from zombiescan.synth import (emit_weibo_format, read_truth_csv, write_truth_csv,
                              _zombie_allocation)

from oracles import is_reciprocal


def small_config(**overrides):
    base = dict(block_sizes=(30, 30), p_in=0.2, p_out=0.01, reciprocity=0.3,
                zombie_fraction=0.1, zombie_out_degree=(5, 10),
                zombie_max_in_degree=1, seed=42)
    base.update(overrides)
    return SynthConfig(**base)


class TestConfig:
    def test_round_trips_through_json(self):
        cfg = small_config()
        again = SynthConfig.from_json(io.StringIO(json.dumps(dataclasses.asdict(cfg))))
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            SynthConfig.from_json(io.StringIO('{"block_size": [5]}'))

    @pytest.mark.parametrize("bad", [
        dict(p_in=1.5),
        dict(zombie_fraction=1.0),
        dict(zombie_out_degree=(9, 3)),
        dict(block_sizes=()),
        dict(regions={}),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValidationError):
            small_config(**bad)


class TestGenerate:
    def test_complete_mutual_digraph_extreme(self):
        cfg = SynthConfig(block_sizes=(4,), p_in=1.0, p_out=0.0, reciprocity=1.0,
                          zombie_fraction=0.0, seed=1)
        g, truth, _ = generate(cfg)
        assert g.edge_count == 4 * 3
        for u in range(4):
            for v in range(4):
                if u != v:
                    assert is_reciprocal(g, u, v)

    def test_exact_zombie_count(self):
        cfg = SynthConfig(block_sizes=(10,), p_in=0.3, zombie_fraction=0.5,
                          zombie_out_degree=(1, 3), seed=2)
        _, truth, _ = generate(cfg)
        assert int(truth.is_zombie.sum()) == 5

    def test_determinism_byte_identical(self, tmp_path):
        cfg = small_config()
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            g, truth, profiles = generate(cfg)
            emit_weibo_format(g, truth, profiles, out)
        for name in ("weibo_network.txt", "uidlist.txt", "user_profile.txt", "truth.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zombie_degree_bounds_hold(self):
        cfg = small_config(seed=7)
        g, truth, _ = generate(cfg)
        lo, hi = cfg.zombie_out_degree
        for z in np.flatnonzero(truth.labels()).tolist():
            assert lo <= g.out_degrees[z] <= hi
            assert g.in_degrees[z] <= cfg.zombie_max_in_degree

    def test_no_cross_block_components_when_p_out_zero(self):
        from zombiescan import symmetrize

        cfg = small_config(p_out=0.0, seed=9)
        g, truth, _ = generate(cfg)
        und = symmetrize(g)
        # BFS from each node must stay inside its block
        for start in (0, 35):
            seen = {start}
            frontier = [start]
            while frontier:
                u = frontier.pop()
                ids, _ = und.neighbors(u)
                for v in ids:
                    if int(v) not in seen:
                        seen.add(int(v))
                        frontier.append(int(v))
            blocks = {int(truth.block_ids[u]) for u in seen}
            assert len(blocks) == 1

    def test_profiles_carry_degrees_and_regions(self):
        cfg = small_config(seed=11)
        g, truth, profiles = generate(cfg)
        for i in (0, 17, 59):
            assert profiles.followers[i] == g.in_degrees[i]
            assert profiles.followees[i] == g.out_degrees[i]
            assert profiles.region_names[profiles.region_codes[i]] == truth.regions[i]

    def test_infeasible_zombie_out_degree_rejected(self):
        with pytest.raises(ValidationError, match="targets"):
            generate(SynthConfig(block_sizes=(10,), zombie_fraction=0.5,
                                 zombie_out_degree=(6, 8), seed=1))

    def test_zombie_allocation_largest_remainder(self):
        cfg = SynthConfig(block_sizes=(10, 10, 11), zombie_fraction=0.1,
                          zombie_out_degree=(1, 2), seed=1)
        counts = _zombie_allocation(cfg)
        assert sum(counts) == 3  # round(0.1 * 31)
        assert counts == [1, 1, 1]


class TestEmission:
    def test_round_trip_through_ingest(self, tmp_path):
        cfg = small_config(seed=13)
        g, truth, profiles = generate(cfg)
        paths = emit_weibo_format(g, truth, profiles, tmp_path / "corpus")
        raw = parse_weibo_network(paths["network"])
        assert raw.to_graph() == g
        uids = parse_uidlist(paths["uidlist"])
        assert len(uids) == g.node_count
        parsed_profiles = parse_profiles(paths["profiles"])
        assert len(parsed_profiles) == g.node_count
        assert parsed_profiles.followers[5] == profiles.followers[5]

    def test_profile_lines_hold_eight_fields_and_parse_back(self, tmp_path):
        g, truth, profiles = generate(small_config(seed=19))
        profiles.followees_missing[3] = True  # a masked count is written blank
        paths = emit_weibo_format(g, truth, profiles, tmp_path / "corpus")
        lines = paths["profiles"].read_text(encoding="utf-8").splitlines()
        assert len(lines) == g.node_count
        assert all(line.count("\t") == 7 for line in lines)
        assert lines[0] == f"1000000\tuser_0\tm\tno\t{truth.regions[0]}\t" \
            f"{g.in_degrees[0]}\t{g.out_degrees[0]}\t0"
        assert lines[3].split("\t")[6] == ""
        parsed = parse_profiles(paths["profiles"])

        def columns(t):
            regions = np.array(t.region_names + [""], dtype=object)[t.region_codes].tolist()
            return (regions, t.followers.tolist(), t.followers_missing.tolist(),
                    t.followees.tolist(), t.followees_missing.tolist())

        profiles.followees[3] = 0  # a masked entry reads 0
        assert columns(parsed) == columns(profiles)

    def test_reciprocal_pair_flagged_both_ways(self, tmp_path):
        cfg = SynthConfig(block_sizes=(3,), p_in=1.0, reciprocity=1.0, seed=3)
        g, truth, profiles = generate(cfg)
        paths = emit_weibo_format(g, truth, profiles, tmp_path / "corpus")
        raw = parse_weibo_network(paths["network"])
        assert set(raw.flags) == {1}

    def test_truth_csv_round_trip(self, tmp_path):
        cfg = small_config(seed=17)
        _, truth, _ = generate(cfg)
        path = tmp_path / "truth.csv"
        write_truth_csv(truth, path)
        again = read_truth_csv(path)
        assert np.array_equal(again.block_ids, truth.block_ids)
        assert np.array_equal(again.is_zombie, truth.is_zombie)
        assert again.regions == truth.regions

    @pytest.mark.parametrize("value", ["2", "yes", "TRUE", ""])
    def test_unknown_is_zombie_value_rejected(self, tmp_path, value):
        path = tmp_path / "truth.csv"
        path.write_text("node_id,block_id,is_zombie,region\n"
                        f"0,0,1,Beijing\n1,0,{value},Beijing\n")
        with pytest.raises(ValidationError, match="bad truth row"):
            read_truth_csv(path)

    @pytest.mark.parametrize("value,expected", [("0", False), ("1", True), ("true", True),
                                                ("false", False), ("True", True),
                                                ("False", False)])
    def test_known_is_zombie_values_read(self, tmp_path, value, expected):
        path = tmp_path / "truth.csv"
        path.write_text(f"node_id,block_id,is_zombie,region\n0,0,{value},Beijing\n")
        assert read_truth_csv(path).labels().tolist() == [expected]
