"""Section VII: the regional self-interest experiments (EXP-NZ1/NZ2).

Paper (New Zealand region, 187 ASes, target AS55857): re-homing the
target up two levels cut average regional pollution from 60% to 25% for
regional attackers and from 15% to 6% for 200 external attackers; a
single prefix filter at the regional hub cut regional attacks to 40% and
external ones to 14%.
"""


def _exposure_falls(summary) -> None:
    assert summary["regional_fraction_after"] < summary["regional_fraction_before"]
    assert summary["external_fraction_after"] <= summary["external_fraction_before"]


def test_nz1_rehoming(experiment):
    summary = experiment("nz_rehoming").summary
    assert summary["rehoming"] is not None
    _exposure_falls(summary)


def test_nz2_regional_hub_filter(experiment):
    _exposure_falls(experiment("nz_filter").summary)
