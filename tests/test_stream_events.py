"""Unit tests for the stream event model, JSONL format and compilers."""

import pytest

from repro.attacks.scenario import HijackKind, HijackScenario, PathKind
from repro.prefixes.prefix import Prefix
from repro.stream.events import (
    Announce,
    DefenseActivate,
    RoaPublish,
    RoaRevoke,
    StreamFormatError,
    Withdraw,
    compile_campaign,
    compile_scenario,
    event_from_dict,
    event_to_dict,
    parse_event_line,
    read_events,
    write_events,
)

PFX = Prefix.parse("10.1.0.0/16")
SUB = Prefix.parse("10.1.128.0/17")

ALL_KINDS = [
    Announce(at=0.0, prefix=PFX, origin_asn=50),
    Announce(at=0.5, prefix=PFX, origin_asn=60, path=(60, 64512, 50)),
    Announce(at=0.75, prefix=PFX, origin_asn=60, replay="leak"),
    Withdraw(at=1.5, prefix=PFX, origin_asn=50),
    RoaPublish(at=2.0, prefix=PFX, origin_asn=50),
    RoaRevoke(at=3.0, prefix=PFX, origin_asn=50, max_length=24),
    DefenseActivate(at=4.0, deployer_asns=(1, 2, 10)),
]


class TestSerialization:
    def test_every_kind_round_trips(self):
        for event in ALL_KINDS:
            assert event_from_dict(event_to_dict(event)) == event

    def test_file_round_trip_identical_and_deterministic(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(path, ALL_KINDS)
        assert read_events(path) == ALL_KINDS
        first = path.read_bytes()
        write_events(path, read_events(path))
        assert path.read_bytes() == first

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(path, ALL_KINDS[:2])
        path.write_text("\n" + path.read_text().replace("\n", "\n\n"))
        assert read_events(path) == ALL_KINDS[:2]

    def test_event_to_dict_rejects_non_events(self):
        with pytest.raises(StreamFormatError, match="not a stream event"):
            event_to_dict(object())

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("not a dict", "must be an object"),
            ({"kind": "teleport", "at": 1.0}, "unknown event kind"),
            ({"at": 1.0}, "unknown event kind"),
            ({"kind": "announce", "at": True, "prefix": "10.1.0.0/16",
              "origin": 50}, "timestamp"),
            ({"kind": "announce", "at": 1.0, "origin": 50}, "missing prefix"),
            ({"kind": "announce", "at": 1.0, "prefix": "10.1.0.0/16",
              "origin": True}, "origin"),
            ({"kind": "announce", "at": 1.0, "prefix": "10.1.0.0/99",
              "origin": 50}, "malformed event"),
            ({"kind": "roa-publish", "at": 1.0, "prefix": "10.1.0.0/16",
              "origin": 50, "max_length": "x"}, "max_length"),
            ({"kind": "announce", "at": 1.0, "prefix": "10.1.0.0/16",
              "origin": 60, "path": [60, "50"]}, "invalid path"),
            ({"kind": "announce", "at": 1.0, "prefix": "10.1.0.0/16",
              "origin": 60, "replay": 7}, "invalid replay"),
            ({"kind": "announce", "at": 1.0, "prefix": "10.1.0.0/16",
              "origin": 60, "replay": "verbatim"}, "malformed event"),
            ({"kind": "defense-activate", "at": 1.0,
              "deployers": [1, "2"]}, "deployer"),
        ],
    )
    def test_event_from_dict_rejects(self, payload, match):
        with pytest.raises(StreamFormatError, match=match):
            event_from_dict(payload)

    @pytest.mark.parametrize(
        "at", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "int-past-float"],
    )
    def test_parse_event_line_rejects_non_finite_time(self, at):
        # json.loads accepts all four; none is a time a clock can hold.
        line = '{"at":%s,"kind":"announce","origin":50,"prefix":"10.1.0.0/16"}' % at
        with pytest.raises(StreamFormatError, match="timestamp"):
            parse_event_line(line)

    @pytest.mark.parametrize("kind", ["roa-publish", "roa-revoke"])
    @pytest.mark.parametrize("max_length", [99, -4, 3])
    def test_parse_event_line_rejects_out_of_range_max_length(self, kind, max_length):
        # The ROA's own rule: maxLength lies in [prefix length, 32].
        line = (
            '{"at":1.0,"kind":"%s","max_length":%d,"origin":50,"prefix":"10.0.0.0/8"}'
            % (kind, max_length)
        )
        with pytest.raises(StreamFormatError, match=r"outside \[8, 32\]"):
            parse_event_line(line)

    @pytest.mark.parametrize("max_length", [8, 32])
    def test_parse_event_line_accepts_max_length_bounds(self, max_length):
        line = (
            '{"at":1.0,"kind":"roa-publish","max_length":%d,"origin":50,'
            '"prefix":"10.0.0.0/8"}' % max_length
        )
        assert parse_event_line(line).max_length == max_length

    def test_parse_event_line_rejects_invalid_json(self):
        with pytest.raises(StreamFormatError, match="invalid JSON"):
            parse_event_line("{nope")

    def test_read_events_is_strict_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_events(path, ALL_KINDS[:1])
        path.write_text(path.read_text() + "{broken\n")
        with pytest.raises(StreamFormatError, match=r"bad\.jsonl:2"):
            read_events(path)


class TestAnnounceValidation:
    def test_path_and_replay_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="either a path or a replay"):
            Announce(at=0.0, prefix=PFX, origin_asn=60, path=(60, 50),
                     replay="leak")

    def test_unknown_replay_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown replay mode"):
            Announce(at=0.0, prefix=PFX, origin_asn=60, replay="verbatim")

    def test_honest_wire_form_has_no_path_keys(self):
        payload = event_to_dict(Announce(at=0.0, prefix=PFX, origin_asn=50))
        assert "path" not in payload and "replay" not in payload


class TestCompileScenario:
    def test_origin_hijack_timeline(self):
        scenario = HijackScenario(target_asn=50, attacker_asn=60, prefix=PFX)
        events = compile_scenario(scenario, start=2.0, spacing=1.5)
        assert events == [
            Announce(at=2.0, prefix=PFX, origin_asn=50),
            Announce(at=3.5, prefix=PFX, origin_asn=60),
        ]

    def test_dwell_adds_attacker_withdraw(self):
        scenario = HijackScenario(target_asn=50, attacker_asn=60, prefix=PFX)
        events = compile_scenario(scenario, dwell=4.0)
        assert events[-1] == Withdraw(at=5.0, prefix=PFX, origin_asn=60)

    def test_subprefix_legitimate_announce_uses_covering_prefix(self):
        scenario = HijackScenario(
            target_asn=50, attacker_asn=60, prefix=SUB, kind=HijackKind.SUBPREFIX
        )
        legit, attack = compile_scenario(scenario)
        assert legit.origin_asn == 50 and legit.prefix == SUB.supernet()
        assert attack.origin_asn == 60 and attack.prefix == SUB

    def test_announce_legitimate_off(self):
        scenario = HijackScenario(target_asn=50, attacker_asn=60, prefix=PFX)
        events = compile_scenario(scenario, announce_legitimate=False)
        assert [event.origin_asn for event in events] == [60]

    def test_forged_path_rides_the_attacker_announce(self):
        scenario = HijackScenario(
            target_asn=50, attacker_asn=60, prefix=PFX,
            path_kind=PathKind.TYPE_N, forged_path=(60, 64512, 50),
        )
        _legit, attack = compile_scenario(scenario)
        assert attack.path == scenario.forged_path
        assert attack.replay == ""

    def test_type_u_lowers_to_replay_marker(self):
        scenario = HijackScenario(
            target_asn=50, attacker_asn=60, prefix=PFX,
            path_kind=PathKind.TYPE_U,
        )
        _legit, attack = compile_scenario(scenario)
        assert attack.replay == "unmodified" and attack.path == ()

    def test_route_leak_lowers_to_leak_marker(self):
        scenario = HijackScenario(
            target_asn=50, attacker_asn=60, prefix=PFX,
            kind=HijackKind.ROUTE_LEAK,
        )
        _legit, attack = compile_scenario(scenario)
        assert attack.replay == "leak" and attack.path == ()

    def test_squat_type_u_keeps_the_squatted_slice_dark(self):
        """A squatter's unmodified replay re-announces its own honest
        claim (it holds no route to the dark prefix), so the compiler
        emits a plain announce, and the legitimate origin announces only
        the covering prefix."""
        scenario = HijackScenario(
            target_asn=50, attacker_asn=60, prefix=SUB,
            kind=HijackKind.SQUAT, path_kind=PathKind.TYPE_U,
        )
        legit, attack = compile_scenario(scenario)
        assert legit.prefix == SUB.supernet()
        assert attack.prefix == SUB
        assert attack.path == () and attack.replay == ""


class TestCompileCampaign:
    def two_on_one(self):
        return [
            HijackScenario(target_asn=50, attacker_asn=60, prefix=PFX),
            HijackScenario(target_asn=50, attacker_asn=70, prefix=PFX),
        ]

    def test_legitimate_announced_once_per_prefix(self):
        events = compile_campaign(self.two_on_one())
        legit = [e for e in events if isinstance(e, Announce) and e.origin_asn == 50]
        assert len(legit) == 1

    def test_publish_roas_lands_at_start(self):
        events = compile_campaign(self.two_on_one(), start=3.0, publish_roas=True)
        roas = [event for event in events if isinstance(event, RoaPublish)]
        assert roas == [RoaPublish(at=3.0, prefix=PFX, origin_asn=50)]
        assert events[0] == roas[0]

    def test_time_ordered_with_stable_ties(self):
        events = compile_campaign(self.two_on_one(), stagger=0.0, dwell=2.0)
        stamps = [event.at for event in events]
        assert stamps == sorted(stamps)
        # Tied timestamps keep insertion order: first scenario's attacker
        # announce precedes the second scenario's.
        attackers = [
            event.origin_asn for event in events if isinstance(event, Announce)
            if event.origin_asn != 50
        ]
        assert attackers == [60, 70]
