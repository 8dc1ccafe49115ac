"""Unit tests for the sectioned-CSV case format and bundled systems."""

import re

import numpy as np
import pytest

from lelsim.cases import (BUNDLED_CASES, bundled_case, bus_islands, load_case,
                          nearest_generator, validate_case)
from lelsim.errors import InvalidArgument
from lelsim.grid import build_ybus

MINIMAL = """\
[SYSTEM]
s_base,100.0
[BUS]
1,slack,1.04,0,0
2,pq,1.0,50,20
[BRANCH]
1,2,0.01,0.1,0.02
[GEN]
1,5.0,50.0,0.2,0,1.04
"""
GEN = "1,5.0,50.0,0.2,0,1.04"


class TestLoadCase:
    def test_minimal_case_parses(self):
        case = load_case(MINIMAL)
        assert case.n_bus == 2
        assert len(case.branches) == 1
        assert len(case.generators) == 1
        assert case.s_base == 100.0

    def test_missing_gen_section_rejected(self):
        text = "\n".join(line for line in MINIMAL.splitlines()
                         if line not in ("[GEN]", "1,5.0,50.0,0.2,0,1.04"))
        with pytest.raises(InvalidArgument):
            load_case(text)

    def test_branch_to_unknown_bus_rejected(self):
        text = MINIMAL.replace("1,2,0.01,0.1,0.02", "1,7,0.01,0.1,0.02")
        with pytest.raises(InvalidArgument):
            load_case(text)

    def test_data_before_header_rejected(self):
        with pytest.raises(InvalidArgument):
            load_case("1,slack,1.04,0,0\n[BUS]\n")

    def test_a_header_needs_both_brackets(self):
        # a line with one bracket is a data row, not a section header
        with pytest.raises(InvalidArgument, match="^line 1: data before any section header$"):
            load_case("[BUS\n" + MINIMAL)
        with pytest.raises(InvalidArgument, match=re.escape("line 4: [BUS] row ['BUS]']")):
            load_case(MINIMAL.replace("[BUS]", "[BUS]\nBUS]"))

    @pytest.mark.parametrize("old,new,where", [
        ("1,2,0.01,0.1,0.02", "1,2,0.01,nan,0.02", "[BRANCH]"),
        ("2,pq,1.0,50,20", "2,pq,1.0,inf,20", "[BUS]"),
        ("1,5.0,50.0,0.2,0,1.04", "1,5.0,50.0,0.2,-1e999,1.04", "[GEN]"),
        ("s_base,100.0", "s_base,NaN", "[SYSTEM]"),
    ], ids=["branch_nan", "bus_inf", "gen_overflow", "system_nan"])
    def test_non_finite_number_rejected_naming_section_and_row(self, old, new, where):
        with pytest.raises(InvalidArgument,
                           match=rf"line \d+: {re.escape(where)} row .*non-finite"):
            load_case(MINIMAL.replace(old, new))

    @pytest.mark.parametrize("old,new,where", [
        ("2,pq,1.0,50,20", "2,pq,1.0,fifty,10", "[BUS]"),
        ("s_base,100.0", "s_base", "[SYSTEM]"),
        ("[GEN]", "[LEL]\n2,steelmill\n[GEN]", "[LEL]"),
    ], ids=["non_numeric_field", "system_row_without_value", "unknown_archetype"])
    def test_malformed_row_rejected_naming_section_and_row(self, old, new, where):
        with pytest.raises(InvalidArgument, match=rf"line \d+: {re.escape(where)} row \["):
            load_case(MINIMAL.replace(old, new))

    @pytest.mark.parametrize("old,new,named", [
        ("2,pq,1.0,50,20", "2,pq,1.0,50,20\n2,pq,1.0,10,5", "duplicate bus ids"),
        ("1,slack,1.04,0,0", "1,pv,1.04,0,0", "exactly one slack bus, found 0"),
        ("2,pq,1.0,50,20", "2,slack,1.0,50,20", "exactly one slack bus, found 2"),
        ("2,pq,1.0,50,20", "2,load,1.0,50,20", "bus 2: unknown type 'load'"),
        ("1,2,0.01,0.1,0.02", "1,2,0,0,0.02", "branch 1-2: zero impedance"),
        (GEN, GEN + "\n" + GEN, "at most one generator per bus"),
        (GEN, GEN + "\n7,5.0,50.0,0.2,0,1.0", "generator at unknown bus 7"),
        (GEN, GEN + "\n2,5.0,50.0,0.2,0,1.0", "generator bus 2 must be PV or slack"),
        ("2,pq,1.0,50,20", "2,pv,1.0,50,20", "every PV/slack bus needs a generator"),
        (GEN, GEN + "\n[LEL]\n2,datacenter\n2,datacenter", "at most one LEL per bus"),
        (GEN, GEN + "\n[LEL]\n7,datacenter", "LEL at unknown bus 7"),
        (GEN, GEN + "\n[LEL]\n1,datacenter", "LEL bus 1 must be PQ"),
        (GEN, GEN + "\n[LEL]\n2,datacenter,0.5,0.3,0.1",
         "LEL bus 2: shares must be >= 0 and sum to 1"),
        (GEN, GEN + "\n[LEL]\n2,datacenter,1.2,-0.3,0.1",
         "LEL bus 2: shares must be >= 0 and sum to 1"),
        ("2,pq,1.0,50,20", "2,pq,1.0,50,20\n3,pq,1.0,10,5", "disconnected bus(es): [3]"),
        ("s_base,100.0", "s_base,0", "need s_base > 0 and f_base > 0, got 0.0 and 60.0"),
        ("s_base,100.0", "s_base,100.0\nf_base,0", "need s_base > 0 and f_base > 0"),
        ("1,slack,1.04,0,0", "1,slack,0,0,0", "bus 1: v_set must be > 0"),
    ], ids=["duplicate_bus", "no_slack", "two_slacks", "unknown_bus_type", "zero_impedance",
            "two_generators_on_one_bus", "generator_at_unknown_bus", "generator_at_pq_bus",
            "pv_bus_without_generator", "two_lels_on_one_bus", "lel_at_unknown_bus",
            "lel_at_slack_bus", "shares_not_summing_to_one", "negative_share",
            "disconnected_bus", "zero_s_base", "zero_f_base", "zero_slack_voltage"])
    def test_impossible_case_rejected_naming_the_problem(self, old, new, named):
        with pytest.raises(InvalidArgument, match=re.escape(named)):
            load_case(MINIMAL.replace(old, new))

    def test_zero_tap_means_nominal(self):
        nominal = load_case(MINIMAL)
        zero = load_case(MINIMAL.replace("1,2,0.01,0.1,0.02", "1,2,0.01,0.1,0.02,0"))
        assert np.array_equal(build_ybus(zero), build_ybus(nominal))

    def test_negative_tap_rejected_naming_the_branch(self):
        with pytest.raises(InvalidArgument, match="branch 1-2: tap must be >= 0"):
            load_case(MINIMAL.replace("1,2,0.01,0.1,0.02", "1,2,0.01,0.1,0.02,-0.5"))

    def test_zero_damping_allowed(self):
        case = load_case(MINIMAL.replace("1,5.0,50.0,0.2,0,1.04", "1,5.0,0,0.2,0,1.04"))
        assert case.generators[0].D == 0.0

    def test_lel_section_attaches_archetype(self):
        text = MINIMAL + "[LEL]\n2,datacenter,0.6,0.3,0.1\n"
        case = load_case(text)
        assert len(case.lels) == 1
        assert case.lels[0].bus == 2

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + MINIMAL.replace(
            "[BRANCH]", "[BRANCH]\n# a branch")
        assert load_case(text).n_bus == 2


class TestBundledCases:
    @pytest.mark.parametrize("name,n_bus", [("toy2", 2), ("toy9", 9),
                                            ("ieee39", 39)])
    def test_bundled_cases_load_and_validate(self, name, n_bus):
        case = bundled_case(name)
        assert case.n_bus == n_bus
        validate_case(case)

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidArgument):
            bundled_case("toy99")

    def test_every_data_file_is_a_bundled_case(self):
        assert {"toy2", "toy9", "ieee39"} <= set(BUNDLED_CASES)
        for name in BUNDLED_CASES:
            validate_case(bundled_case(name))

    def test_ieee39_has_ten_generators(self):
        assert len(bundled_case("ieee39").generators) == 10

    def test_with_lels_replaces_placements(self):
        case = bundled_case("toy9")
        bare = case.with_lels(())
        assert bare.lels == ()
        assert bare.buses == case.buses


# bus 3 hangs off the slack bus 1 by two parallel branches, of |r + jx|
# 0.5 and 0.1, and off bus 2 by one of 0.3; bus 4 lies 0.1 from both
# machines.  The GEN rows list bus 2's machine first, so it is index 0
PARALLEL = """\
[BUS]
1,slack,1.0,0,0
2,pv,1.0,0,0
3,pq,1.0,10,0
4,pq,1.0,10,0
[BRANCH]
{parallel}
2,3,0,0.3,0
1,4,0,0.1,0
2,4,0,0.1,0
[GEN]
2,5.0,50.0,0.2,10,1.0
1,5.0,50.0,0.2,0,1.0
"""
PARALLEL_PAIR = ("1,3,0.3,0.4,0", "1,3,0.06,0.08,0")


class TestBusGraph:
    @pytest.mark.parametrize("order", [1, -1], ids=["small_last", "small_first"])
    def test_nearest_generator_takes_the_smaller_parallel_impedance(self, order):
        case = load_case(PARALLEL.format(parallel="\n".join(PARALLEL_PAIR[::order])))
        # bus 3 reaches bus 1's machine over 0.1 < 0.3; bus 4's exact tie
        # goes to the lower generator index, bus 2's machine
        assert nearest_generator(case).tolist() == [1, 0, 1, 0]

    def test_islands_over_the_given_branches(self):
        case = load_case(PARALLEL.format(parallel="\n".join(PARALLEL_PAIR)))
        assert bus_islands(case, case.branches).tolist() == [0, 0, 0, 0]
        live = [br for br in case.branches if 3 not in (br.from_bus, br.to_bus)]
        assert bus_islands(case, live).tolist() == [0, 0, 1, 0]
        # one parallel copy keeps bus 3 on
        assert bus_islands(case, case.branches[1:]).tolist() == [0, 0, 0, 0]
