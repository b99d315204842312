"""IPv4 prefixes, longest-prefix matching and address-space allocation."""

from repro.prefixes.addressing import AddressPlan
from repro.prefixes.prefix import Prefix, PrefixError
from repro.prefixes.trie import PrefixTrie

__all__ = [
    "AddressPlan",
    "Prefix",
    "PrefixError",
    "PrefixTrie",
]
