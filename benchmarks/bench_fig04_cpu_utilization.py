"""Fig. 4 — 24-hour CPU utilisation in the inference cluster.

Paper result: utilisation stays low all day, peaking at only ~20% — the idle
headroom LiveUpdate harvests.

Drives `repro.experiments.utilization.simulate_day_profile` over one
simulated day of the diurnal load trace (20 % ceiling, seed 0).  Knob:
``interval_s`` (sample spacing; 900 s here keeps the bench fast).
Expected output shape: a 24-hour curve with a
mid-day plateau near the ~20% peak, a deep overnight trough, and mean
utilisation well below the peak — the gap is exactly the idle-cycle
budget Fig. 18b later converts into training work.
"""

from repro.experiments.reporting import banner, format_table
from repro.experiments.utilization import simulate_day_profile


def test_fig04_cpu_utilization(once):
    profile = once(lambda: simulate_day_profile(interval_s=900.0))
    rows = [
        [f"{s.time_s / 3600:04.1f} h", f"{s.utilization * 100:.1f}%"]
        for s in profile.samples[::4]
    ]
    print(banner("Fig. 4: CPU utilization over 24 h (inference cluster)"))
    print(format_table(["hour", "utilization"], rows))
    print(
        f"peak={profile.peak_utilization * 100:.1f}%  "
        f"mean={profile.mean_utilization * 100:.1f}%"
    )
    assert profile.peak_utilization <= 0.21
    assert profile.mean_utilization < 0.20
