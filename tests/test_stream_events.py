"""Unit tests for the stream event model, JSONL format and compilers."""

import copy
import dataclasses
import json
import pickle

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

    @pytest.mark.parametrize(
        "origin, message",
        [("9" * 5000, "Exceeds the limit"), ("[" * 100_000 + "]" * 100_000, "recursion")],
        ids=["int-past-digit-limit", "nested-past-recursion-limit"],
    )
    def test_parse_event_line_names_json_limits_as_invalid_json(self, origin, message):
        # json.loads raises ValueError / RecursionError here, not
        # JSONDecodeError; the line is still one malformed line.
        line = '{"at":1.0,"kind":"announce","origin":%s,"prefix":"10.1.0.0/16"}' % origin
        with pytest.raises(StreamFormatError, match=f"^invalid JSON: .*{message}"):
            parse_event_line(line)

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


# Each event type's field values, in field order: positional and keyword
# construction must agree, whichever __init__ builds the instance.
EVENT_ARGS = [
    (Announce, (0.5, PFX, 60, (60, 64512, 50), "")),
    (Announce, (0.75, PFX, 60, (), "unmodified")),
    (Withdraw, (1.5, PFX, 50)),
    (RoaPublish, (2.0, PFX, 50, 24)),
    (RoaRevoke, (3.0, PFX, 50, None)),
    (DefenseActivate, (4.0, (1, 2, 10))),
]
EVENT_IDS = ["announce-path", "announce-replay", "withdraw", "roa-publish",
             "roa-revoke", "defense-activate"]


class TestEventValues:
    """Events are immutable values: construction, equality, hash, order,
    ``dataclasses`` helpers, copying and pickling behave the same for all
    five types, and an ``Announce`` refuses a bad claim on every route
    that builds one."""

    @pytest.mark.parametrize("cls, args", EVENT_ARGS, ids=EVENT_IDS)
    def test_positional_and_keyword_construction_agree(self, cls, args):
        names = [f.name for f in dataclasses.fields(cls)]
        positional = cls(*args)
        keyword = cls(**dict(zip(names, args)))
        assert positional == keyword
        assert hash(positional) == hash(keyword)
        assert vars(positional) == dict(zip(names, args))

    def test_defaults_fill_the_optional_fields(self):
        assert Announce(0.0, PFX, 50) == Announce(0.0, PFX, 50, (), "")
        assert RoaPublish(0.0, PFX, 50).max_length is None

    def test_types_with_equal_fields_are_unequal(self):
        publish, revoke = RoaPublish(2.0, PFX, 50), RoaRevoke(2.0, PFX, 50)
        assert publish != revoke
        assert Announce(1.0, PFX, 50) != Withdraw(1.0, PFX, 50)
        assert len({publish, revoke}) == 2

    @pytest.mark.parametrize("cls, args", EVENT_ARGS, ids=EVENT_IDS)
    def test_events_order_within_a_type_by_field_tuple(self, cls, args):
        earlier = cls(*args)
        later = dataclasses.replace(earlier, at=earlier.at + 1.0)
        assert earlier < later and later > earlier
        assert sorted([later, earlier]) == [earlier, later]
        other = Announce(9.0, PFX, 50) if cls is Withdraw else Withdraw(9.0, PFX, 50)
        with pytest.raises(TypeError):
            earlier < other  # no order across types

    @pytest.mark.parametrize("cls, args", EVENT_ARGS, ids=EVENT_IDS)
    def test_dataclass_helpers_copy_and_pickle(self, cls, args):
        event = cls(*args)
        names = [f.name for f in dataclasses.fields(cls)]
        assert list(dataclasses.asdict(event)) == names
        assert dataclasses.replace(event) == event
        moved = dataclasses.replace(event, at=event.at + 2.0)
        assert moved.at == event.at + 2.0 and type(moved) is cls
        for clone in (copy.copy(event), copy.deepcopy(event),
                      pickle.loads(pickle.dumps(event))):
            assert clone == event and hash(clone) == hash(event)
            assert type(clone) is cls and vars(clone) == vars(event)

    @pytest.mark.parametrize("cls, args", EVENT_ARGS, ids=EVENT_IDS)
    def test_fields_refuse_assignment_and_deletion(self, cls, args):
        event = cls(*args)
        for name in (f.name for f in dataclasses.fields(cls)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(event, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(event, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.extra = 1
        assert event == cls(*args)

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"path": (60, 50), "replay": "leak"}, "either a path or a replay"),
            ({"replay": "verbatim"}, "unknown replay mode"),
        ],
        ids=["path-and-replay", "unknown-replay"],
    )
    def test_every_construction_route_refuses_a_bad_claim(self, changes, match):
        fields = {"at": 0.0, "prefix": PFX, "origin_asn": 60, "path": (), "replay": ""}
        fields.update(changes)
        routes = {
            "keyword": lambda: Announce(**fields),
            "positional": lambda: Announce(*fields.values()),
            "replace": lambda: dataclasses.replace(
                Announce(0.0, PFX, 60), **changes
            ),
        }
        for route in routes.values():
            with pytest.raises(ValueError, match=match):
                route()
        payload = {"at": 0.0, "kind": "announce", "origin": 60,
                   "prefix": str(PFX), **changes}
        if "path" in payload:
            payload["path"] = list(payload["path"])
        with pytest.raises(StreamFormatError, match=match):
            event_from_dict(payload)
        with pytest.raises(StreamFormatError, match=match):
            parse_event_line(json.dumps(payload))


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
