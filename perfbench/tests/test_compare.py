from perfbench.compare import verdict

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_clear_gain_is_better():
    change = [v * 0.8 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1)["verdict"] == "better"
    assert verdict(PARENT, change, "higher", 0.1)["verdict"] == "worse"


def test_noise_is_unchanged():
    change = PARENT[1:] + PARENT[:1]
    r = verdict(PARENT, change, "lower", 0.1)
    assert r["verdict"] == "unchanged"
    assert r["pairs"] == 10


def test_a_gain_needs_ten_pairs_and_nine_tenths_wins():
    assert verdict(PARENT[:9], [v * 0.8 for v in PARENT[:9]], "lower", 0.1)["verdict"] == "unchanged"
    change = [v * 0.8 for v in PARENT[:8]] + [v * 1.01 for v in PARENT[8:]]
    r = verdict(PARENT, change, "lower", 0.1)
    assert r["wins"] == 8 and r["verdict"] == "unchanged"


def test_a_gain_must_exceed_the_parents_spread():
    wide = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]
    change = [v - 1.0 for v in wide]
    assert verdict(wide, change, "lower", 0.5)["verdict"] == "unchanged"


def test_wide_spread_is_unresolved_unless_every_change_run_wins():
    wide = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]
    change = [v + 2.0 for v in wide]
    assert verdict(wide, change, "lower", 0.1)["verdict"] == "unresolved"
    assert verdict(wide, [70.0] * 9 + [79.0], "lower", 0.1)["verdict"] == "better"
    assert verdict(wide[:5], [70.0] * 5, "lower", 0.1)["verdict"] == "unchanged"
