"""Unit tests for the IPv4 prefix value type."""

import copy
import dataclasses
import pickle

import pytest

from repro.prefixes import prefix as prefix_module
from repro.prefixes.prefix import Prefix, PrefixError


class TestParsing:
    def test_parse_cidr(self):
        prefix = Prefix.parse("203.0.113.0/24")
        assert prefix.network == (203 << 24) | (0 << 16) | (113 << 8)
        assert prefix.length == 24

    def test_parse_bare_address_is_host_route(self):
        assert Prefix.parse("10.0.0.1").length == 32

    def test_parse_strips_whitespace(self):
        assert Prefix.parse("  10.0.0.0/8 ") == Prefix.parse("10.0.0.0/8")

    @pytest.mark.parametrize(
        "text",
        ["10.0.0/8", "10.0.0.256/8", "10.0.0.0/33", "10.0.0.0/x", "a.b.c.d/8",
         "10.0.0.0.0/8", "",
         # Digits that str.isdigit() accepts but are not ASCII: int()
         # rejects a superscript and reads Arabic-Indic digits as ASCII.
         "10.0.1.0/2\u00b2", "\u0661.2.3.0/24", "1.2.3.0/\u0662\u0664",
         # Past int()'s digit limit (a bare ValueError there).
         pytest.param("1.2.3.0/" + "9" * 5000, id="5000-digit-length"),
         pytest.param("1.2.3." + "9" * 5000, id="5000-digit-octet"),
         "10.0.0.0/+8", "10.0.0.-0/8"],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(PrefixError):
            Prefix.parse(text)

    def test_parse_accepts_leading_zeros(self):
        assert Prefix.parse("010.000.0.0/0008") == Prefix.parse("10.0.0.0/8")

    def test_host_bits_must_be_zero(self):
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.1/8")

    def test_from_host_masks_host_bits(self):
        prefix = Prefix.from_host((10 << 24) | 0x00FF_FFFF, 8)
        assert prefix == Prefix.parse("10.0.0.0/8")

    def test_round_trip_str(self):
        for text in ("0.0.0.0/0", "10.0.0.0/8", "192.168.1.128/25", "1.2.3.4/32"):
            assert str(Prefix.parse(text)) == text


class TestParseMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        prefix_module._PARSED.clear()
        yield
        prefix_module._PARSED.clear()

    @pytest.mark.parametrize(
        "text", ["203.0.113.0/24", " 10.0.0.0/8 ", "010.000.0.0/0008", "1.2.3.4"]
    )
    def test_hit_equals_miss(self, text):
        miss = Prefix.parse(text)
        hit = Prefix.parse(text)
        assert hit == miss == Prefix._parse(text)
        assert type(hit) is Prefix and hit is miss

    def test_malformed_raises_every_time_and_is_not_stored(self):
        for _ in range(3):
            with pytest.raises(PrefixError):
                Prefix.parse("10.0.0.1/8")
        assert "10.0.0.1/8" not in prefix_module._PARSED

    @pytest.mark.parametrize(
        "text", [" " * 64 + "10.0.0.0/8", "0" * 64 + "10.0.0.0/8", "10.0.0.0/" + "0" * 64 + "8"]
    )
    def test_padded_text_parses_but_is_not_stored(self, text):
        assert Prefix.parse(text) == Prefix(10 << 24, 8)
        assert Prefix.parse(text) == Prefix(10 << 24, 8)
        assert text not in prefix_module._PARSED
        assert not prefix_module._PARSED

    def test_longest_canonical_text_is_stored(self):
        text = "255.255.255.255/32"
        assert len(text) == prefix_module._PARSED_TEXT_MAX
        assert Prefix.parse(text) is prefix_module._PARSED[text]

    def test_memo_never_grows_past_its_bound(self, monkeypatch):
        monkeypatch.setattr(prefix_module, "_PARSED_LIMIT", 4)
        for octet in range(11):
            assert Prefix.parse(f"10.{octet}.0.0/16") == Prefix(
                (10 << 24) | (octet << 16), 16
            )
            assert len(prefix_module._PARSED) <= 4

    def test_subclass_gets_its_own_type(self):
        class Tagged(Prefix):
            pass

        plain = Prefix.parse("10.0.0.0/8")
        tagged = Tagged.parse("10.0.0.0/8")
        assert type(tagged) is Tagged
        assert (tagged.network, tagged.length) == (plain.network, plain.length)
        assert type(Prefix.parse("10.0.0.0/8")) is Prefix


class TestContainment:
    def test_contains_more_specific(self):
        parent = Prefix.parse("10.0.0.0/8")
        child = Prefix.parse("10.20.0.0/16")
        assert parent.contains(child)
        assert not child.contains(parent)

    def test_contains_self(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.contains(prefix)

    def test_disjoint_prefixes(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("11.0.0.0/8")
        assert not a.contains(b)
        assert not b.contains(a)

    def test_contains_address(self):
        prefix = Prefix.parse("192.168.1.0/24")
        assert prefix.contains_address((192 << 24) | (168 << 16) | (1 << 8) | 77)
        assert not prefix.contains_address((192 << 24) | (168 << 16) | (2 << 8))

    def test_default_route_contains_everything(self):
        assert Prefix(0, 0).contains(Prefix.parse("203.0.113.0/24"))


class TestSizeAndBits:
    def test_size(self):
        assert Prefix.parse("10.0.0.0/8").size() == 1 << 24
        assert Prefix.parse("1.2.3.4/32").size() == 1

    def test_first_and_last_address(self):
        prefix = Prefix.parse("192.168.1.0/24")
        assert prefix.last_address() - prefix.first_address() == 255


class TestDerivation:
    def test_supernet(self):
        assert Prefix.parse("10.128.0.0/9").supernet() == Prefix.parse("10.0.0.0/8")

    def test_supernet_of_default_route_fails(self):
        with pytest.raises(PrefixError):
            Prefix(0, 0).supernet()

    def test_subnets_split_in_two(self):
        halves = list(Prefix.parse("10.0.0.0/8").subnets())
        assert halves == [Prefix.parse("10.0.0.0/9"), Prefix.parse("10.128.0.0/9")]

    def test_subnets_at_depth(self):
        quarters = list(Prefix.parse("10.0.0.0/8").subnets(10))
        assert len(quarters) == 4
        assert quarters[-1] == Prefix.parse("10.192.0.0/10")

    def test_subnets_reject_shorter_or_too_long(self):
        with pytest.raises(PrefixError):
            list(Prefix.parse("10.0.0.0/8").subnets(7))
        with pytest.raises(PrefixError):
            list(Prefix.parse("1.2.3.4/32").subnets())


class TestOrderingAndHashing:
    def test_sort_order_groups_supernets_first(self):
        prefixes = [
            Prefix.parse("10.0.0.0/9"),
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("9.0.0.0/8"),
        ]
        assert sorted(prefixes) == [
            Prefix.parse("9.0.0.0/8"),
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("10.0.0.0/9"),
        ]

    def test_usable_as_dict_key(self):
        table = {Prefix.parse("10.0.0.0/8"): "a"}
        assert table[Prefix.parse("10.0.0.0/8")] == "a"


class Tagged(Prefix):
    pass


_TEN = Prefix(10 << 24, 8)


class TestCachedHash:
    """A prefix hashes once, as its ``(network, length)`` pair, and only hashes."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Prefix.parse("10.0.0.0/8"),
            lambda: Prefix._parse("10.0.0.0/8"),
            lambda: Prefix(10 << 24, 8),
            lambda: Prefix.from_host((10 << 24) | 0xABCD, 8),
            lambda: pickle.loads(pickle.dumps(_TEN)),
            lambda: copy.deepcopy(_TEN),
            lambda: copy.copy(_TEN),
            lambda: dataclasses.replace(Prefix(10 << 24, 16), length=8),
            lambda: Tagged.parse("10.0.0.0/8"),
            lambda: pickle.loads(pickle.dumps(Tagged(10 << 24, 8))),
        ],
        ids=["parse", "_parse", "init", "from_host", "pickle", "deepcopy", "copy",
             "replace", "subclass", "subclass-pickle"],
    )
    def test_equal_prefixes_hash_as_their_pair(self, build):
        prefix = build()
        # Equality is per class (a Tagged is never == a Prefix); the hash is not.
        twin = type(prefix)(10 << 24, 8)
        assert prefix == twin and {twin: "a"}[prefix] == "a"
        assert hash(prefix) == hash(_TEN) == hash((prefix.network, prefix.length))

    def test_replace_rehashes(self):
        moved = dataclasses.replace(_TEN, network=11 << 24)
        assert hash(moved) == hash((11 << 24, 8)) != hash(_TEN)

    def test_cache_is_not_a_field(self):
        assert [field.name for field in dataclasses.fields(_TEN)] == ["network", "length"]
        assert dataclasses.asdict(_TEN) == {"network": 10 << 24, "length": 8}
        assert dataclasses.astuple(_TEN) == (10 << 24, 8)
        assert repr(_TEN) == "Prefix('10.0.0.0/8')"

    def test_cache_takes_no_part_in_equality_or_order(self):
        skewed = Prefix(10 << 24, 8)
        object.__setattr__(skewed, "_hash", hash(_TEN) + 1)
        assert hash(skewed) == hash(_TEN) + 1  # read back, never recomputed
        assert skewed == _TEN and not skewed != _TEN
        assert not skewed < _TEN and not _TEN < skewed
        assert sorted([Prefix(10 << 24, 9), skewed, Prefix(9 << 24, 8)]) == [
            Prefix(9 << 24, 8), _TEN, Prefix(10 << 24, 9)
        ]

    def test_still_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            _TEN.length = 9
