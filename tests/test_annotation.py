"""Gazetteer annotation: lookup labeling, conflict heuristics, blocklist."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisylab.gazetteer import DEFAULT_PRIORITY, Gazetteer, annotate, annotate_sentence


@pytest.fixture
def gaz():
    return Gazetteer([
        ("France", "LOC"),
        ("Paris", "LOC"),
        ("Fischler", "PER"),
        ("Miller", "PER"),
        ("New Carthage", "LOC"),
        ("Carthage", "ORG"),
        ("United Steel", "ORG"),
        ("Friday", "PER"),
    ])


class TestLookupLabeling:
    def test_known_location(self, gaz):
        labels = annotate_sentence("Only France backed the proposal".split(), gaz)
        assert labels == ["O", "LOC", "O", "O", "O"]

    def test_unknown_token_gets_null_class(self, gaz):
        assert annotate_sentence(["quarterly"], gaz) == ["O"]

    def test_blocklisted_weekday_stays_null(self, gaz):
        # "Friday" is listed under PER but sits on the weekday blocklist
        labels = annotate_sentence("see you Friday morning".split(), gaz)
        assert labels == ["O", "O", "O", "O"]

    def test_case_sensitive(self, gaz):
        assert annotate_sentence(["france"], gaz) == ["O"]

    def test_misc_entries_never_emitted(self):
        g = Gazetteer([("Olympics", "MISC"), ("Rome", "LOC")])
        assert annotate_sentence("the Olympics in Rome".split(), g) == ["O", "O", "O", "LOC"]


class TestConflictHeuristics:
    def test_longest_match_wins(self, gaz):
        labels = annotate_sentence("they reached New Carthage yesterday".split(), gaz)
        assert labels == ["O", "O", "LOC", "LOC", "O"]

    def test_single_token_entry_still_used_alone(self, gaz):
        assert annotate_sentence(["Carthage"], gaz) == ["ORG"]

    def test_two_token_entry_beats_one_token_on_same_position(self):
        g = Gazetteer([("United Steel", "ORG"), ("United", "LOC")])
        assert annotate_sentence("United Steel rose".split(), g) == ["ORG", "ORG", "O"]
        assert annotate_sentence("United exports rose".split(), g) == ["LOC", "O", "O"]

    def test_class_priority_resolves_duplicate_surfaces(self):
        g = Gazetteer([("Jordan", "LOC"), ("Jordan", "PER")])
        assert annotate_sentence(["Jordan"], g) == ["PER"]
        g2 = Gazetteer([("Jordan", "LOC"), ("Jordan", "PER")], priority=("LOC", "PER", "ORG"))
        assert annotate_sentence(["Jordan"], g2) == ["LOC"]


class TestDeterminism:
    def test_repeated_annotation_identical(self, gaz):
        sentences = [
            "Miller visited New Carthage on Friday".split(),
            "France and Paris".split(),
        ]
        first = annotate(sentences, gaz)
        for _ in range(3):
            assert annotate(sentences, gaz) == first


class TestLoading:
    def test_load_tab_separated(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("France\tLOC\nNew Carthage\tLOC\n", encoding="utf-8")
        g = Gazetteer.load(path)
        assert g.lookup(["France"]) == "LOC"
        assert g.lookup(["New", "Carthage"]) == "LOC"

    def test_load_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("France LOC\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            Gazetteer.load(path)
        assert ":1:" in str(err.value)

    def test_class_outside_the_given_classes_names_file_and_line(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("France\tLOC\nSmith\tMISC\njohn\tXYZ\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":3: class 'XYZ' is not one of O, PER") as err:
            Gazetteer.load(path, classes=("O", "PER", "ORG", "LOC"))
        assert str(path) in str(err.value)
        # without classes the file loads as before; MISC lines are skipped either way
        assert len(Gazetteer.load(path)) == 2
        path.write_text("France\tLOC\nSmith\tMISC\n", encoding="utf-8")
        assert len(Gazetteer.load(path, classes=("O", "PER", "ORG", "LOC"))) == 1

    def test_empty_surface_names_file_and_line(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("France\tLOC\n\tPER\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            Gazetteer.load(path)
        assert str(err.value) == f"{path}:2: empty surface"

    @pytest.mark.parametrize("text", ["", "\n\n", "Smith\tMISC\nJones\tMISC\n"],
                             ids=["empty", "blank-lines", "misc-only"])
    def test_file_without_an_entry_names_the_file(self, tmp_path, text):
        path = tmp_path / "gaz.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            Gazetteer.load(path)
        assert str(err.value) == f"{path}: no entry (MISC lines are skipped)"
        # a gazetteer built in code may still be empty
        assert len(Gazetteer([])) == 0

    def test_blocklist_file_extends_default(self, tmp_path):
        gazfile = tmp_path / "gaz.tsv"
        gazfile.write_text("Horizon\tPER\nFriday\tPER\n", encoding="utf-8")
        blockfile = tmp_path / "block.txt"
        blockfile.write_text("Horizon\n", encoding="utf-8")
        g = Gazetteer.load(gazfile, blocklist_path=blockfile)
        assert annotate_sentence(["Horizon"], g) == ["O"]
        assert annotate_sentence(["Friday"], g) == ["O"]


def brute_force_annotation(tokens, pairs, priority, blocklist):
    """Greedy longest match over every span length, from the raw pairs."""
    def rank(cls):
        return priority.index(cls) if cls in priority else len(priority)

    table = {}
    for surface, cls in pairs:
        key = tuple(surface.split())
        if key and cls != "MISC" and (key not in table or rank(cls) < rank(table[key])):
            table[key] = cls
    blocked = {tuple(b.split()) for b in blocklist}
    labels, i = ["O"] * len(tokens), 0
    while i < len(tokens):
        for length in range(len(tokens) - i, 0, -1):
            key = tuple(tokens[i:i + length])
            if key in table and key not in blocked:
                labels[i:i + length] = [table[key]] * length
                i += length
                break
        else:
            i += 1
    return labels


WORDS = st.sampled_from(["New", "new", "York", "Bank", "of", "Friday", "the"])
SURFACES = st.lists(WORDS, min_size=1, max_size=3).map(" ".join)


class TestAgainstBruteForce:
    @given(pairs=st.lists(st.tuples(SURFACES, st.sampled_from(["PER", "LOC", "ORG", "MISC",
                                                                "DATE"])), max_size=12),
           priority=st.permutations(DEFAULT_PRIORITY),
           blocklist=st.lists(SURFACES, max_size=3),
           sentences=st.lists(st.lists(WORDS, max_size=10), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_annotation_is_the_longest_unblocked_match(self, pairs, priority, blocklist,
                                                        sentences):
        g = Gazetteer(pairs, priority=priority, blocklist=blocklist)
        assert annotate(sentences, g) == [
            brute_force_annotation(s, pairs, priority, blocklist) for s in sentences]
