"""Gazetteer lookup annotation.

Surface forms (one or more tokens) map to entity classes.  Annotation is a
pure function of (corpus, gazetteer): longest match wins, conflicts between
classes for the same surface are resolved by a priority order at load time,
blocklisted surfaces and everything unmatched become O, and MISC is never
emitted because list lookup does not cover it.
"""

from typing import Iterable, Optional, Sequence

WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
            "Saturday", "Sunday")
MONTHS = ("January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December")

# weekday and month names, both cased and lowercased
DEFAULT_BLOCKLIST = tuple(WEEKDAYS + MONTHS) + tuple(
    w.lower() for w in WEEKDAYS + MONTHS
)

DEFAULT_PRIORITY = ("PER", "LOC", "ORG")


class Gazetteer:
    """Deterministic surface-form lookup table with a class priority order."""

    def __init__(self, pairs: Iterable[tuple[str, str]],
                 priority: Sequence[str] = DEFAULT_PRIORITY,
                 blocklist: Optional[Iterable[str]] = None):
        self.priority = tuple(priority)
        block = DEFAULT_BLOCKLIST if blocklist is None else tuple(blocklist)
        self.blocklist = frozenset(tuple(b.split()) for b in block)
        self.entries: dict[tuple[str, ...], str] = {}
        self.max_len = 1
        for surface, cls in pairs:
            key = tuple(surface.split())
            if not key:
                continue
            if cls == "MISC":
                # not covered by lookup annotation
                continue
            current = self.entries.get(key)
            if current is None or self._rank(cls) < self._rank(current):
                self.entries[key] = cls
            self.max_len = max(self.max_len, len(key))
        # a position whose token starts no entry can match nothing
        self.first_tokens = frozenset(key[0] for key in self.entries)

    def _rank(self, cls):
        try:
            return self.priority.index(cls)
        except ValueError:
            return len(self.priority)

    def lookup(self, tokens: Sequence[str]) -> Optional[str]:
        key = tuple(tokens)
        if key in self.blocklist:
            return None
        return self.entries.get(key)

    def __len__(self):
        return len(self.entries)

    @classmethod
    def load(cls, path, blocklist_path=None, classes=None):
        """Read "surface<TAB>CLASS" lines; blocklist file has one surface per line.
        An empty surface, or with ``classes`` a class outside them (MISC
        aside, which is skipped), is an error naming the file and line; so is
        a file that yields no entry."""
        pairs = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                if "\t" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'surface<TAB>CLASS'")
                surface, entity_class = (part.strip() for part in line.rsplit("\t", 1))
                if not surface:
                    raise ValueError(f"{path}:{lineno}: empty surface")
                if classes is not None and entity_class not in (*classes, "MISC"):
                    raise ValueError(f"{path}:{lineno}: class {entity_class!r} is not one of "
                                     f"{', '.join(classes)}")
                pairs.append((surface, entity_class))
        blocklist = None
        if blocklist_path is not None:
            blocklist = list(DEFAULT_BLOCKLIST) + load_blocklist(blocklist_path)
        gazetteer = cls(pairs, blocklist=blocklist)
        if not gazetteer.entries:
            raise ValueError(f"{path}: no entry (MISC lines are skipped)")
        return gazetteer


def load_blocklist(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def annotate_sentence(tokens: Sequence[str], gazetteer: Gazetteer) -> list[str]:
    """Labels for one sentence; greedy left-to-right, longest match first.

    Only positions whose token starts some entry are looked up: the
    blocklist only removes matches, so no other position can match.
    """
    n = len(tokens)
    labels = ["O"] * n
    starts = gazetteer.first_tokens
    end = 0  # first position not inside an earlier match
    for i, token in enumerate(tokens):
        if i < end or token not in starts:
            continue
        for length in range(min(gazetteer.max_len, n - i), 0, -1):
            cls = gazetteer.lookup(tokens[i:i + length])
            if cls is not None:
                labels[i:i + length] = [cls] * length
                end = i + length
                break
    return labels


def annotate(sentences: Iterable[Sequence[str]], gazetteer: Gazetteer) -> list[list[str]]:
    """Label every token of every sentence by gazetteer lookup."""
    return [annotate_sentence(list(tokens), gazetteer) for tokens in sentences]
