"""Byte-identical CLI output for a fixed set of commands.

Each case pins the exit code and the sha256 of stdout.  The digests were
recorded before the tau grid, the lattice sweep, the box-ball step and the
track assignment were each collapsed into a single implementation, and the
two bounded-carrier ``bbsc`` digests before the box-ball sweep and CSV
writer were rewritten to work per row, so a refactor of any of them that
changes one output byte fails here.  The ``analyze_readme`` digest was
re-recorded once, when the speed fit became exact: its two ``"speed"``
values moved by one ulp each to the correctly rounded slope, and no other
byte changed.  The ``analyze_one_mode`` and ``analyze_three_modes``
digests, which pin the ``analyze`` report for track counts other than
two, were recorded before ``analyze`` moved to float-first
sampling.  The ``analyze_three_modes`` digest was re-recorded once, when a
track outside its life span stopped being an exclusion cone growing one
site per row and became a line run on at its own net speed.  The 7/30
track leaves the window at t = 36 near n = 89; the cone around that point
reached the 2/15 track at t = 58 and stripped its samples at t = 58-60,
which now count.  The 2/15 speed moved from 0.7829377226502265 to
0.7828865403774175 (closed form 0.7829328274204592), 5.9e-5 relative,
and no other byte changed.  All three ``analyze`` digests were
re-recorded once more when the speed and amplitude laws took their
half-angle form: the closed-form amplitude of the 2/15 mode moved from
0.3636574765382382 to 0.36365747653823827, its nearest float, and no other
byte changed.
The ``evolve_values_exact`` digest was re-recorded once, when
``evolve`` began to seed each sweep with the solution's own carrier at the
left edge instead of the background value 1: the sweep then stays on the
sampled solution, so its output equals ``exact_values_exact`` byte for byte,
which the test asserts.  The ``exact_values_float`` and
``evolve_values_float`` digests pin the float CSV, the default ``--values``
format; they were recorded before ``LatticeField.write_csv`` stopped going
through ``float()`` for each value.  The ``bbsc_long_csv`` digest pins a
run the size of a benchmark panel job (1000 sweeps, c_box > c_carrier, a
5 MB CSV); it was recorded before the sweep, the CSV writer and the cluster
scan began to skip empty boxes.
"""

import hashlib

import pytest

from solitonlab.cli import run

REF = ["--alpha", "5/6", "--beta", "14/15",
       "--soliton", "2/15:-1/6", "--soliton", "1/30:-1/30"]
WINDOW = ["--n", "-20:8", "--t", "0:4"]

GOLDEN = {
    "analyze_readme": (
        ["analyze", *REF, "--n", "-30:90", "--t", "0:60"], 0,
        "a566f155fa9c29999d33b5a3d5c64d4e81d532fffb8fcfb97b069c8516b63884"),
    "analyze_one_mode": (
        ["analyze", "--alpha", "5/6", "--beta", "14/15",
         "--soliton", "2/15:-1/6", "--n", "-30:90", "--t", "0:60"], 0,
        "43352eabeb00e249d24c0040128d9c243acda8c2a38a8cd37be207212869f0e9"),
    "analyze_three_modes": (
        ["analyze", "--alpha", "5/6", "--beta", "14/15",
         "--soliton", "1/60:-11/1000000000000000000000",
         "--soliton", "2/15:-38000000000",
         "--soliton", "7/30:-346000000000000000",
         "--n", "-30:90", "--t", "0:60"], 0,
        "a682cb574dff2bf1f6c96e8ae0a6627826273e6ad6fa67dc1181bc77840f76e6"),
    "scan_alpha_lt_beta": (
        ["scan", "--alpha", "5/6", "--beta", "14/15", "--grid", "101"], 0,
        "1ed57f2ce9908f07ab688e7e5d27a72c78a03290371d267460500f7d7dd3c187"),
    "scan_alpha_eq_beta": (
        ["scan", "--alpha", "5/6", "--beta", "5/6", "--grid", "101"], 0,
        "fc647d46a25272f76b33b7c71ece515ea2e466f14791af5631f0540d1924c6a6"),
    "scan_alpha_gt_beta": (
        ["scan", "--alpha", "14/15", "--beta", "5/6", "--grid", "101"], 0,
        "6ff1878dad00394dea2d76815388d8f9180edcf074f5da01fb361718f4f51fb8"),
    "verify_all": (
        ["verify", "all", "--grid", "8", "--points", "6", "--steps", "2"], 0,
        "768d88302d613d85158cdf2ba7a10d8cb9595ff5b2c03148b09a0978516db59d"),
    "exact_values_exact": (
        ["exact", *REF, *WINDOW, "--values", "exact"], 0,
        "8caec248ac29c1f858c38c88e933d0ad89acea6235890243054fa028d44c2184"),
    "evolve_values_exact": (
        ["evolve", *REF, *WINDOW, "--values", "exact"], 0,
        "8caec248ac29c1f858c38c88e933d0ad89acea6235890243054fa028d44c2184"),
    "exact_values_float": (
        ["exact", *REF, *WINDOW], 0,
        "cdefa54e6e895f45fc434a127b38392ca1909125b6a3f498f3be8bb1b41996f5"),
    "evolve_values_float": (
        ["evolve", *REF, *WINDOW], 0,
        "cdefa54e6e895f45fc434a127b38392ca1909125b6a3f498f3be8bb1b41996f5"),
    "bbsc_readme": (
        ["bbsc", "--cb", "1", "--init", "0111010000000", "--steps", "4",
         "--render", "ascii"], 0,
        "afc05157df5e411579c4565eeb5aecbba9222ca96d6cd5233c8781792270b9d6"),
    "bbsc_bounded_csv_two_digit": (
        ["bbsc", "--cb", "12", "--cc", "5", "--init", "0999099000900",
         "--steps", "12", "--render", "csv"], 0,
        "798068d0a7052fcf81e10c242fd84e9502890218d9423c28f9ab91a5b3253965"),
    "bbsc_bounded_ascii": (
        ["bbsc", "--cb", "3", "--cc", "1", "--init", "3300020001000",
         "--steps", "10", "--render", "ascii"], 0,
        "56dfcd32eee345e4411c773d8762c5b5cd4bb295f73181979cc16bf78c883941"),
    "bbsc_long_csv": (
        ["bbsc", "--cb", "4", "--cc", "1", "--init", "000244000100030002134100",
         "--steps", "1000", "--render", "csv"], 0,
        "18a4a213bbf4add77959a2d783a4bc7796763a68dd0f63a9cab9b347e4374921"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_stdout(capsys, name):
    argv, code, digest = GOLDEN[name]
    assert run(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_evolve_digest_equals_exact():
    # the lattice sweep from the exact left boundary reproduces the sampled
    # solution, so both commands print the same bytes
    assert GOLDEN["evolve_values_exact"][2] == GOLDEN["exact_values_exact"][2]
    assert GOLDEN["evolve_values_float"][2] == GOLDEN["exact_values_float"][2]
