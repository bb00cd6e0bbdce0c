import functools
import hashlib
import itertools
import os
import random

import pytest

from permobius import (
    ANNIHILATOR_PAIRS,
    BASE_ANNIHILATORS,
    CONJECTURED_PAIRS,
    AnnihilatorPair,
    OpposingAdjacencies,
    SumAnnihilator,
    apply_symmetry,
    certificate_line,
    certify_zero,
    describe_certificate,
    direct_sum,
    down_set,
    inflate_at,
    mobius,
    parse,
    principal_mobius,
    sigma_sum_rule,
    verify_certificate,
)
from oracles import brute_down_set, brute_mobius, interval_copies

perms_of = lambda n: itertools.permutations(range(1, n + 1))


class TestRuleTables:
    def test_base_annihilators(self):
        assert set(BASE_ANNIHILATORS) == {
            parse("215463"),
            parse("236145"),
            parse("214653"),
        }
        for b in BASE_ANNIHILATORS:
            assert brute_mobius((1,), b) == 0

    def test_pairs(self):
        assert set(ANNIHILATOR_PAIRS) == {
            (parse("12"), parse("21")),
            (parse("213"), parse("2431")),
            (parse("2143"), parse("2431")),
            (parse("312"), parse("23514")),
            (parse("25134"), parse("23514")),
        }

    def test_conjectured(self):
        assert CONJECTURED_PAIRS == ((parse("312"), parse("235614")),)


class TestOpposing:
    def test_examples(self):
        cert = certify_zero(parse("367249815"))
        assert isinstance(cert, OpposingAdjacencies)
        assert (cert.up_index, cert.down_index) == (2, 6)
        assert principal_mobius(parse("367249815")) == 0

    def test_precedence(self):
        # 1234 has both kinds of structure; opposing adjacencies win
        cert = certify_zero(parse("12354"))
        assert isinstance(cert, OpposingAdjacencies)


class TestSumSplitCert:
    def test_example(self):
        cert = certify_zero(parse("21354"))
        assert isinstance(cert, SumAnnihilator)
        assert (cert.window, cert.split, cert.symmetry) == ((1, 5), 3, "id")

    def test_skew_variant_found_via_symmetry(self):
        # the reverse-complement of 21354 has no direct sum-split but is
        # still certified through a symmetry
        pi = apply_symmetry("rc", parse("21354"))
        cert = certify_zero(pi)
        assert cert is not None
        assert verify_certificate(pi, cert)


class TestBaseCert:
    def test_direct_window(self):
        pi = inflate_at(parse("132"), [1], [parse("215463")])
        cert = certify_zero(pi)
        assert cert is not None
        assert verify_certificate(pi, cert)
        assert principal_mobius(pi) == 0

    def test_symmetric_window(self):
        base = parse("236145")
        pi = inflate_at(parse("312"), [2], [apply_symmetry("i", base)])
        cert = certify_zero(pi)
        assert cert is not None and verify_certificate(pi, cert)
        assert principal_mobius(pi) == 0


class TestPairCert:
    def test_12_21_pair(self):
        # disjoint interval copies of 12 and 21 with no shared structure
        pi = parse("1243")  # 12 at (1,2), 21 at (3,4) -- but opposing wins
        cert = certify_zero(pi)
        assert cert is not None and verify_certificate(pi, cert)

    def test_pair_requires_same_symmetry_and_disjoint(self):
        for pair, pi_text in ((("12", "21"), "124365"),):
            pi = parse(pi_text)
            cert = certify_zero(pi)
            assert cert is not None
            assert verify_certificate(pi, cert)
            assert principal_mobius(pi) == 0

    @pytest.mark.parametrize(
        "text, cert",
        [
            ("1342756", AnnihilatorPair(((2, 1, 3), (2, 4, 3, 1)), "r", (5, 7), (1, 4))),
            ("13268547", AnnihilatorPair(((3, 1, 2), (2, 3, 5, 1, 4)), "ir", (1, 3), (4, 8))),
            ("13427856", AnnihilatorPair(((2, 1, 4, 3), (2, 4, 3, 1)), "r", (5, 8), (1, 4))),
        ],
    )
    def test_proved_pair_by_value(self, text, cert):
        # hosts that only a proved pair certifies: no earlier rule fires, so
        # the pair, its symmetry and both windows are pinned
        pi = parse(text)
        assert certify_zero(pi) == cert
        assert verify_certificate(pi, cert)
        assert principal_mobius(pi) == 0

    def test_longest_proved_pair_on_a_length_10_host(self):
        # no host of length <= 9 is certified by 25134 and 23514; the skew
        # sum of the two is, and the pair rule is the one that fires
        pair = ((2, 5, 1, 3, 4), (2, 3, 5, 1, 4))
        pi = inflate_at(parse("21"), [1, 2], list(pair))
        assert pi == parse("7 10 6 8 9 2 3 5 1 4")
        cert = certify_zero(pi)
        assert cert == AnnihilatorPair(pair, "id", (1, 5), (6, 10))
        assert verify_certificate(pi, cert)
        assert principal_mobius(pi) == 0

    def test_conjectured_flag(self):
        # host built to contain disjoint interval copies of 312 and 235614:
        # only the conjectured pair certifies it, and only behind the flag
        pi = inflate_at(
            direct_sum(parse("21"), parse("21")), [1, 3], [parse("312"), parse("235614")]
        )
        assert certify_zero(pi) is None
        assert certify_zero(pi, include_conjectured=True) == AnnihilatorPair(
            (parse("312"), parse("235614")), "id", (1, 3), (5, 10)
        )


class TestSoundness:
    def test_certified_implies_zero_exhaustive(self):
        for n in range(1, 8):
            for pi in perms_of(n):
                cert = certify_zero(pi)
                if cert is not None:
                    assert verify_certificate(pi, cert)
                    assert principal_mobius(pi) == 0, pi

    def test_certified_implies_zero_sampled_n8(self):
        rng = random.Random(19)
        for _ in range(300):
            pi = tuple(rng.sample(range(1, 9), 8))
            cert = certify_zero(pi)
            if cert is not None:
                assert verify_certificate(pi, cert)
                assert principal_mobius(pi) == 0, pi

    def test_known_nonzero_never_certified(self):
        for text in ("1", "12", "21", "132", "2413", "32417685", "25314"):
            assert certify_zero(parse(text)) is None

    def test_incompleteness_witness(self):
        # a zero the rule system does not capture
        pi = parse("214635")
        assert principal_mobius(pi) == 0
        assert certify_zero(pi) is None

    def test_verify_rejects_tampering(self):
        pi = parse("367249815")
        good = certify_zero(pi)
        bad = OpposingAdjacencies(up_index=1, down_index=6)
        assert verify_certificate(pi, good)
        assert not verify_certificate(pi, bad)
        assert not verify_certificate(parse("2413"), good)
        bad_sum = SumAnnihilator(window=(1, 4), split=2, symmetry="id")
        assert not verify_certificate(parse("2413"), bad_sum)

    @pytest.mark.parametrize(
        "up, down",
        [(0, 6), (-1, 6), (9, 6), (2, 0), (2, -1), (2, 9)]
        + [(6, 2), (2, 2), (6, 6)]
        + [(2.0, 6), (2, 6.0), ("2", 6), (2, None), (2.5, 6)],
    )
    def test_verify_rejects_bad_adjacency_indices(self, up, down):
        # 367249815 has one up-adjacency, 67 at 2, and one down-adjacency, 98 at 6
        pi = parse("367249815")
        assert verify_certificate(pi, OpposingAdjacencies(2, 6))
        assert not verify_certificate(pi, OpposingAdjacencies(up, down))


class TestCertificatePin:
    def test_certificate_lines_up_to_7(self):
        # fails if rule precedence, witness choice or label order changes
        lines = [
            certificate_line(pi, certify_zero(pi))
            for n in range(1, 8)
            for pi in perms_of(n)
        ]
        assert len(lines) == 5913
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "9b33aed031ba44fec409f8028a56a60c94d48975b62a99a52332f541581f9ad8"

    def test_certificate_lines_of_length_8(self):
        lines = [certificate_line(pi, certify_zero(pi)) for pi in perms_of(8)]
        assert len(lines) == 40320
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "47d0a2aa44ae2ffcccae98699d86fce9579742516f86b0ab5c169f815e77a8ea"

    @pytest.mark.skipif(
        os.environ.get("PERMOBIUS_STRETCH") != "1",
        reason="stretch; set PERMOBIUS_STRETCH=1 to run (about 9 s each)",
    )
    @pytest.mark.parametrize(
        "conjectured, digest",
        [
            (False, "8c5a6eceba76ede7b0f55f4b6018208e5431a8677a116fd0d1c27dcdbdcfda56"),
            (True, "949c4d154bd80e19fc617a470500f6c66b88791a56037e01c5f64b86931db2c1"),
        ],
        ids=["plain", "conjectured"],
    )
    def test_certificate_lines_of_length_9(self, conjectured, digest):
        # length 9 is the first at which the conjectured pair changes a line
        try:
            lines = [
                certificate_line(pi, certify_zero(pi, include_conjectured=conjectured))
                for pi in perms_of(9)
            ]
        finally:
            certify_zero.cache_clear()  # else it keeps 362,880 entries per flag
        assert len(lines) == 362880
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

    def test_conjectured_certificate_lines_up_to_7(self):
        # the conjectured pair's members need 9 points, so through length 7
        # the flag must leave every certificate as it is without it
        lines = [
            certificate_line(pi, certify_zero(pi, include_conjectured=True))
            for n in range(1, 8)
            for pi in perms_of(n)
        ]
        assert len(lines) == 5913
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "9b33aed031ba44fec409f8028a56a60c94d48975b62a99a52332f541581f9ad8"


class TestSigmaSumRule:
    def test_literal_quantification(self):
        alpha, beta = parse("1"), parse("1")
        pi = parse("123")
        assert sigma_sum_rule(parse("1"), alpha, beta, pi)

    def test_tripwire_example(self):
        # 45123 carries an interval copy of 1+1+1 on window 3..5
        sigma = parse("12")
        alpha = beta = (1,)
        pi = parse("45123")
        assert isinstance(sigma_sum_rule(sigma, alpha, beta, pi), bool)

    def test_pinned_exhaustively_to_length_6(self):
        # the rule against its statement over brute windows, for every
        # sigma < pi with |pi| <= 6 and alpha, beta in {1, 12, 21}
        copies = functools.cache(interval_copies)
        small = [parse(s) for s in ("1", "12", "21")]
        cases = [
            (a, b, direct_sum(a, direct_sum((1,), b)), [
                direct_sum(a2, b2) for a2 in brute_down_set(a) for b2 in brute_down_set(b)
            ])
            for a, b in itertools.product(small, small)
        ]
        fired = set()
        for pi in itertools.chain.from_iterable(map(perms_of, range(1, 7))):
            for sigma in down_set(pi) - {pi}:
                for a, b, phi, probes in cases:
                    want = bool(copies(pi, phi)) and not any(copies(sigma, q) for q in probes)
                    assert sigma_sum_rule(sigma, a, b, pi) == want
                    if want:
                        fired.add((sigma, pi))
        assert len(fired) == 493
        assert all(mobius(sigma, pi) == 0 for sigma, pi in fired)


class TestDescriptions:
    def test_tags_and_lines(self):
        cases = {
            "367249815": "opposing-adjacencies",
            "21354": "sum-annihilator",
        }
        for text, tag in cases.items():
            pi = parse(text)
            got_tag, witness = describe_certificate(certify_zero(pi))
            assert got_tag == tag
            assert witness
            line = certificate_line(pi, certify_zero(pi))
            assert line.startswith(text + "\t" + tag)

    def test_none_line(self):
        assert certificate_line(parse("2413"), None) == "2413\tnone\t"
