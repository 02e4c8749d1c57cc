import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hallq import symfun
from hallq.hloracle import charge, charge_kostka_foulkes
from hallq.partitions import enumerate_partitions, n_stat, partition_index
from hallq.symfun import (
    GroundParams,
    SpecEntry,
    ThomaSpec,
    b_coefficient,
    geometric_merge,
    geometric_merge_beta,
    hl_p_in_m,
    hl_p_in_p,
    hl_q_in_p,
    kostka_foulkes,
    kostka_foulkes_entry,
    kostka_numbers,
    load_spec,
    m_in_p,
    power_substitution,
    r_function,
    s_in_p,
    save_spec,
    schur_values,
    spec_from_dict,
    spec_to_dict,
)

HALF = F(1, 2)
THIRD = F(1, 3)


def spec_alpha(*values):
    return ThomaSpec(alphas=tuple(SpecEntry(F(v)) for v in values))


class TestCharge:
    def test_column_superstandard(self):
        for n in range(1, 7):
            col = tuple((i,) for i in range(1, n + 1))
            assert charge(col) == 0

    def test_single_row_standard(self):
        for n in range(1, 7):
            assert charge((tuple(range(1, n + 1)),)) == n * (n - 1) // 2

    def test_two_tableaux_of_hook(self):
        assert sorted(charge(t) for t in (((1, 2), (3,)), ((1, 3), (2,)))) == [1, 2]

    def test_superstandard_is_zero(self):
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                t = tuple(tuple([i + 1] * lam[i]) for i in range(len(lam)))
                assert charge(t) == 0, lam

    def test_single_row_content_rho(self):
        for n in range(1, 7):
            for rho in enumerate_partitions(n):
                row = tuple(i + 1 for i, p in enumerate(rho) for _ in range(p))
                assert charge((row,)) == n_stat(rho)

    def test_non_partition_content_rejected(self):
        with pytest.raises(ValueError):
            charge(((2, 3),))


class TestKostkaFoulkes:
    def test_row_column_entries(self):
        t = F(1, 5)
        assert kostka_foulkes_entry((2, 2), (1, 1, 1, 1), t) == t**2 + t**4
        assert kostka_foulkes_entry((1, 1, 1), (1, 1, 1), t) == 1
        for n in range(1, 7):
            for rho in enumerate_partitions(n):
                assert kostka_foulkes_entry((n,), rho, HALF) == HALF ** n_stat(rho)

    def test_at_one_equals_kostka(self):
        for n in range(1, 6):
            assert kostka_foulkes(n, F(1)) == tuple(
                tuple(F(x) for x in row) for row in kostka_numbers(n)
            )

    def test_unitriangular_in_dominance(self):
        for n in range(1, 9):
            kf = kostka_foulkes(n, HALF)
            for i in range(len(kf)):
                assert kf[i][i] == 1
                for j in range(i):
                    assert kf[i][j] == 0

    def test_kostka_examples(self):
        K = kostka_numbers(3)
        idx = partition_index(3)
        assert K[idx[(3,)]][idx[(1, 1, 1)]] == 1
        assert K[idx[(2, 1)]][idx[(1, 1, 1)]] == 2
        for n in range(1, 6):
            Kn = kostka_numbers(n)
            for i in range(len(Kn)):
                assert Kn[i][i] == 1


class TestHLTransition:
    def test_one_column_is_elementary(self):
        for t in (HALF, THIRD):
            for n in range(1, 6):
                idx = partition_index(n)
                row = hl_p_in_m(n, t)[idx[tuple([1] * n)]]
                want = [F(0)] * len(row)
                want[idx[tuple([1] * n)]] = F(1)
                assert list(row) == want

    def test_t_zero_is_schur(self):
        for n in range(1, 6):
            assert hl_p_in_m(n, F(0)) == kostka_numbers(n)

    def test_q_one_box(self):
        assert hl_q_in_p(1, HALF) == ((1 - HALF,),)

    def test_b_coefficients(self):
        assert b_coefficient((1,), HALF) == 1 - HALF
        assert b_coefficient((1, 1), HALF) == (1 - HALF) * (1 - HALF**2)
        assert b_coefficient((2, 1), THIRD) == (1 - THIRD) ** 2

    def test_t_one_rejected(self):
        for matrix in (hl_p_in_p, hl_p_in_m, hl_q_in_p):
            with pytest.raises(ValueError):
                matrix(3, F(1))


class TestPowerSums:
    def test_normalized_p1(self):
        for spec in (spec_alpha(1), spec_alpha(F(2, 3), F(1, 3)),
                     ThomaSpec(betas=(SpecEntry(F(1)),)),
                     ThomaSpec(alphas=(SpecEntry(F(1, 2)),), betas=(SpecEntry(F(1, 4)),), gamma=F(1, 4))):
            assert spec.power_sum(1, HALF) == 1

    def test_geometric_closed_form(self):
        geo = ThomaSpec(alphas=(SpecEntry(F(1), True),))
        assert geo.power_sum(2, HALF) == F(1, 3)
        # against a truncated direct sum
        total = sum((HALF * HALF**j) ** 2 for j in range(40))
        assert abs(float(geo.power_sum(2, HALF)) - total) < 1e-12

    def test_beta_signs(self):
        beta = ThomaSpec(betas=(SpecEntry(F(1, 2)),))
        assert beta.power_sum(2, HALF) == -F(1, 4)
        assert beta.power_sum(3, HALF) == F(1, 8)

    def test_gamma_only_p1(self):
        g = ThomaSpec(gamma=F(1))
        assert g.power_sum(1, HALF) == 1
        assert g.power_sum(2, HALF) == 0

    @given(st.integers(1, 12), st.integers(1, 4))
    def test_power_substitution_identity(self, m, d):
        if m * d > 12:
            m = max(1, 12 // d)
        spec = ThomaSpec(
            alphas=(SpecEntry(F(1, 3)), SpecEntry(F(1, 4), True)),
            betas=(SpecEntry(F(1, 4)),),
            gamma=F(1, 6),
        )
        e = power_substitution(spec, d, HALF)
        assert e.power_sum(m) == spec.power_sum(m * d, HALF)

    def test_power_substitution_random_specs(self):
        import random

        rng = random.Random(12)
        for _ in range(5):
            a = F(rng.randint(1, 11), 12)
            b = F(rng.randint(0, int(12 - a * 12)), 12)
            spec = ThomaSpec(
                alphas=(SpecEntry(a),),
                betas=(SpecEntry(b),) if b else (),
                gamma=1 - a - b,
            )
            for d in (1, 2, 3, 4):
                e = power_substitution(spec, d, THIRD)
                for m in range(1, 12 // d + 1):
                    assert e.power_sum(m) == spec.power_sum(m * d, THIRD)

    def test_substitution_sign_convention(self):
        # -(-b)^d agrees with (-1)^(d+1) b^d
        b = F(2, 7)
        for d in (2, 3):
            assert -((-b) ** d) == (-1) ** (d + 1) * b**d


class TestEvaluate:
    def test_classical_expansions(self):
        # s_11 = m_11 = (p_11 - p_2) / 2, columns (2), (1, 1)
        assert s_in_p(2)[1] == m_in_p(2)[1] == (F(-1, 2), F(1, 2))

    def test_schur_specials(self):
        one = spec_alpha(1)
        beta1 = ThomaSpec(betas=(SpecEntry(F(1)),))
        for n in range(1, 7):
            assert schur_values(one, HALF, n)[0] == 1
        assert schur_values(one, HALF, 2) == (1, 0)
        assert schur_values(beta1, HALF, 2) == (0, 1)

    def test_geometric_merge(self):
        spec = spec_alpha(F(3, 5), F(2, 5))
        merged = geometric_merge(spec)
        assert merged.mass == spec.mass == 1
        assert all(e.geometric for e in merged.alphas)
        with pytest.raises(ValueError):
            geometric_merge(merged)
        assert geometric_merge(ThomaSpec()) == ThomaSpec()

    def test_merge_beta(self):
        spec = ThomaSpec(betas=(SpecEntry(F(1)),))
        merged = geometric_merge_beta(spec)
        assert merged.mass == 1 and all(e.geometric for e in merged.betas)


class TestRFunction:
    def test_identity_character(self):
        one = spec_alpha(1)
        for n in range(0, 7):
            for rho in enumerate_partitions(n):
                assert r_function(rho, one, HALF) == 1
                assert r_function(rho, one, THIRD) == 1

    def test_degree_one(self):
        for spec in (spec_alpha(F(1, 2), F(1, 2)), ThomaSpec(betas=(SpecEntry(F(1)),))):
            assert r_function((1,), spec, HALF) == 1

    def test_beta_atom(self):
        beta1 = ThomaSpec(betas=(SpecEntry(F(1)),))
        assert r_function((1, 1), beta1, HALF) == 2
        assert r_function((2,), beta1, HALF) == 0
        for n in range(1, 6):
            assert r_function(tuple([1] * n), beta1, HALF) == 2 ** (n * (n - 1) // 2)


class TestSpecFiles:
    def test_roundtrip(self, tmp_path):
        spec = ThomaSpec(
            alphas=(SpecEntry(F(1, 2)), SpecEntry(F(1, 3), True)),
            betas=(SpecEntry(F(1, 6)),),
        )
        path = tmp_path / "point.spec"
        save_spec(path, spec, q=3)
        loaded, q = load_spec(path)
        assert loaded == spec and q == 3

    def test_dict_roundtrip(self):
        spec = ThomaSpec(alphas=(SpecEntry(F(2, 3)), SpecEntry(F(1, 3))))
        again, q = spec_from_dict(spec_to_dict(spec))
        assert again == spec and q is None

    def test_json_numbers_and_shipped_specs_read_as_fractions(self):
        spec, q = spec_from_dict({"alphas": [{"value": 0.5}], "betas": [{"value": 1}], "gamma": 0, "q": 2})
        assert spec.alphas[0].value == F(1, 2) and spec.betas[0].value == 1 and q == 2
        specs = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.spec"))
        assert len(specs) == 7
        for path in specs:
            doc = json.loads(path.read_text())
            spec, q = load_spec(path)
            for key, entries in (("alphas", spec.alphas), ("betas", spec.betas)):
                want = sorted((F(e["value"]), e.get("geometric", False)) for e in doc.get(key, []))
                assert sorted((e.value, e.geometric) for e in entries) == want
            assert spec.gamma == F(doc.get("gamma", "0"))
            assert q == (F(doc["q"]) if "q" in doc else None)

    @pytest.mark.parametrize("key", ["gamma", "q"])
    @pytest.mark.parametrize(
        "text,message",
        [
            ("1e3000000", "rational input '1e3000000' would have more than 4300 digits"),
            ("x" * 10**6, f"not a rational: {'x' * 40!r}"),  # quoted in part, not in full
        ],
        ids=["oversized", "not_a_rational"],
    )
    def test_string_values_share_the_parser(self, key, text, message):
        with pytest.raises(ValueError) as err:
            spec_from_dict({key: text})
        assert str(err.value) == f"malformed spec file: {key}: {message}"

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            ThomaSpec(alphas=(SpecEntry(F(1, 2)),)).require_normalized()

    def test_entries_sorted(self):
        spec = ThomaSpec(alphas=(SpecEntry(F(1, 3)), SpecEntry(F(2, 3))))
        assert [e.value for e in spec.alphas] == [F(2, 3), F(1, 3)]


class TestGround:
    def test_ground(self):
        g = GroundParams(2)
        assert g.t == F(1, 2) and g.t * g.q == 1
        with pytest.raises(ValueError):
            GroundParams(1)


class TestDiskCache:
    N = 4

    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(symfun.CACHE_ENV_VAR, str(tmp_path))
        kostka_foulkes.cache_clear()
        hl_q_in_p.cache_clear()
        yield tmp_path
        kostka_foulkes.cache_clear()
        hl_q_in_p.cache_clear()

    def reference(self):
        # from the charge referee, so that it never calls the builder
        parts = enumerate_partitions(self.N)
        return tuple(
            tuple(sum((c * HALF**k for k, c in enumerate(charge_kostka_foulkes(lam, mu))), F(0)) for mu in parts)
            for lam in parts
        )

    def write(self, doc):
        path = symfun._cache_path("kostka-foulkes", self.N, HALF)
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        return path

    def doc(self, rows, **header):
        doc = {"format": symfun.CACHE_FORMAT, "kind": "kostka-foulkes", "n": self.N, "t": str(HALF),
               "rows": [[str(x) for x in row] for row in rows]}
        return {**doc, **header}

    def test_round_trip(self, cache_dir, monkeypatch):
        rows = kostka_foulkes(self.N, HALF)
        assert [p.name for p in cache_dir.iterdir()] == [f"kostka-foulkes-n{self.N}-t1_2.json"]
        kostka_foulkes.cache_clear()
        monkeypatch.setattr(symfun, "kostka_foulkes_polynomials", lambda *args: pytest.fail("recomputed"))
        assert kostka_foulkes(self.N, HALF) == rows == self.reference()

    @pytest.mark.parametrize("text", ["", "{not json", "[]", '{"format": 1}'])
    def test_corrupt_file_is_a_miss(self, cache_dir, text):
        path = self.write(text)
        assert kostka_foulkes(self.N, HALF) == self.reference()
        assert json.loads(path.read_text(encoding="utf-8")) == self.doc(self.reference())

    @pytest.mark.parametrize(
        "header",
        [{"format": "hallq-matrix-cache-v0"}, {"kind": "hl-q-in-p"}, {"n": 3}, {"t": "1/3"}],
    )
    def test_wrong_header_is_a_miss(self, cache_dir, header):
        identity = [[F(int(i == j)) for j in range(5)] for i in range(5)]
        self.write(self.doc(identity, **header))
        assert kostka_foulkes(self.N, HALF) == self.reference()

    def test_matrix_that_is_not_unit_upper_triangular_is_a_miss(self, cache_dir):
        rows = [list(row) for row in self.reference()]
        rows[3][1] = F(1)
        self.write(self.doc(rows))
        assert kostka_foulkes(self.N, HALF) == self.reference()

    def test_wrong_shape_is_a_miss(self, cache_dir):
        self.write(self.doc([[F(1)]]))
        assert kostka_foulkes(self.N, HALF) == self.reference()

    @pytest.mark.parametrize("kind,build", [("kostka-foulkes", kostka_foulkes), ("hl-q-in-p", hl_q_in_p)])
    def test_one_changed_entry_is_a_miss(self, cache_dir, kind, build):
        # K[(4), (3, 1)] is t = 1/2 and lies above the diagonal, so only the
        # identity at the geometric Haar point can see it change
        fresh = build(self.N, HALF)
        path = symfun._cache_path(kind, self.N, HALF)
        stored = path.read_text(encoding="utf-8")
        doc = json.loads(stored)
        doc["rows"][0][1] = str(F(doc["rows"][0][1]) + F(3, 8))
        path.write_text(json.dumps(doc), encoding="utf-8")
        build.cache_clear()
        assert build(self.N, HALF) == fresh
        assert path.read_text(encoding="utf-8") == stored

    @pytest.mark.parametrize("t", [F(-1), F(0), F(1)])
    def test_no_file_where_the_check_degenerates(self, cache_dir, t):
        kostka_foulkes(self.N, t)
        assert list(cache_dir.iterdir()) == []

    def test_concurrent_writers(self, cache_dir):
        # two processes store and re-read the same key at once: every read
        # sees a whole file, and no temporary file is left behind
        code = textwrap.dedent(f"""
            import sys
            from fractions import Fraction
            from hallq import symfun
            t = Fraction(1, 2)
            rows = symfun.kostka_foulkes({self.N}, t)
            for _ in range(300):
                symfun._cache_store("kostka-foulkes", {self.N}, t, rows)
                if symfun._cache_load("kostka-foulkes", {self.N}, t) != rows:
                    sys.exit("torn read")
        """)
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), symfun.CACHE_ENV_VAR: str(cache_dir)}
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stderr=subprocess.PIPE, text=True)
                 for _ in range(2)]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        assert [p.name for p in cache_dir.iterdir()] == [f"kostka-foulkes-n{self.N}-t1_2.json"]
        assert symfun._cache_load("kostka-foulkes", self.N, HALF) == self.reference()


def test_non_triangular_kostka_foulkes_raises_under_optimize():
    # the triangularity check must not be an assert that python -O strips
    code = textwrap.dedent("""
        from fractions import Fraction
        from hallq import symfun
        assert False, "asserts are live: not running under -O"
        bad = [list(row) for row in symfun.kostka_foulkes(3, Fraction(1, 2))]
        bad[2][0] = Fraction(1)
        symfun.kostka_foulkes = lambda n, t: bad
        try:
            symfun.hl_p_in_p(3, Fraction(1, 2))
        except ArithmeticError as exc:
            print("raised:", exc)
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop(symfun.CACHE_ENV_VAR, None)
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "raised: Kostka-Foulkes matrix at n=3, t=1/2 is not unit upper triangular: "
        "entry ((1, 1, 1), (3,)) is 1\n"
    ), done.stdout
