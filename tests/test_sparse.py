from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft
from scipy import linalg as sla

from cirauth import sparse
from cirauth.numerics import sample_complex_gaussian, standard_normal_rows, stream
from cirauth.sparse import (
    CsCodec,
    RecoveryError,
    compress,
    dct_basis,
    gaussian_phi,
    identity_basis,
    omp,
    reconstruct_decisions,
    reconstruct_raw,
)


class TestGaussianPhi:
    def test_deterministic(self):
        a = gaussian_phi(stream(50, 0), 20, 40)
        b = gaussian_phi(stream(50, 0), 20, 40)
        assert np.array_equal(a, b)

    def test_column_norm_concentration(self):
        phi = gaussian_phi(stream(51, 0), 480, 600)
        col_sq = np.sum(phi**2, axis=0)
        assert col_sq.mean() == pytest.approx(1.0, abs=0.15)

    def test_entry_variance(self):
        phi = gaussian_phi(stream(52, 0), 100, 400)
        assert phi.var() == pytest.approx(1 / 100, rel=0.05)
        assert abs(phi.mean()) < 0.002

    def test_square_or_tall_rejected(self):
        with pytest.raises(ValueError):
            gaussian_phi(stream(53, 0), 600, 600)
        with pytest.raises(ValueError):
            gaussian_phi(stream(53, 0), 10, 5)


class TestBases:
    def test_dct_trivial(self):
        assert np.array_equal(dct_basis(1), [[1.0]])

    @pytest.mark.parametrize("n", [2, 4, 33, 600])
    def test_dct_orthonormal(self, n):
        psi = dct_basis(n)
        assert np.abs(psi @ psi.T - np.eye(n)).max() < 1e-12

    def test_dct_constant_input_concentrates(self):
        got = dct_basis(4) @ np.ones(4)
        assert np.allclose(got, [2.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_dct_matches_scipy(self):
        n = 16
        x = stream(54, 0).standard_normal(n)
        assert np.allclose(dct_basis(n) @ x, sfft.dct(x, norm="ortho"), atol=1e-12)

    def test_identity(self):
        assert np.array_equal(identity_basis(3), np.eye(3))

    @pytest.mark.parametrize("builder", [dct_basis, identity_basis])
    def test_energy_conservation(self, builder):
        psi = builder(32)
        x = sample_complex_gaussian(stream(55, 0), 32, 1.0)
        assert np.linalg.norm(psi @ x) == pytest.approx(np.linalg.norm(x), abs=1e-10)


class TestCompress:
    def _codec(self, m=480, n=600):
        return CsCodec(gaussian_phi(stream(56, 0), m, n), basis="dct", max_atoms=60)

    def test_zero_maps_to_zero(self):
        codec = self._codec()
        assert np.array_equal(compress(np.zeros(600), codec), np.zeros(480))

    def test_linearity(self):
        codec = self._codec()
        rng = stream(57, 0)
        x1 = sample_complex_gaussian(rng, 600, 1.0)
        x2 = sample_complex_gaussian(rng, 600, 1.0)
        lhs = compress(2.5 * x1 + x2, codec)
        rhs = 2.5 * compress(x1, codec) + compress(x2, codec)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_output_length(self):
        codec = self._codec()
        y = compress(sample_complex_gaussian(stream(58, 0), 600, 1.0), codec)
        assert y.shape == (480,)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compress(np.zeros(599), self._codec())

    @pytest.mark.parametrize("complex_input", [False, True])
    def test_block_rows_match_single_reports(self, complex_input):
        codec = self._codec()
        block = sample_complex_gaussian(stream(60, 0), 3 * 600, 1.0).reshape(3, 600)
        block = block if complex_input else block.real.copy()
        y = compress(block, codec)
        assert y.shape == (3, 480)
        for row, want in zip(y, block):
            assert np.abs(row - codec.phi @ want).max() < 1e-12

    def test_report_validates_length(self):
        raw = self._codec()
        decisions = CsCodec(gaussian_phi(stream(56, 0), 480, 600), basis="identity", max_atoms=60)
        for y in (np.zeros(3), np.zeros((2, 2, 480))):
            with pytest.raises(ValueError, match="trailing length"):
                reconstruct_raw(y, raw)
            with pytest.raises(ValueError, match="trailing length"):
                reconstruct_decisions(y, decisions)


class TestCsCodec:
    def test_default_atom_budget(self):
        codec = CsCodec(gaussian_phi(stream(59, 0), 480, 600))
        assert codec.max_atoms == 60  # ceil(M/8)

    def test_non_orthonormal_guard(self):
        # a codec created with a good basis stores it verbatim; sanity-check
        # the validation machinery via a near-square phi and identity basis
        codec = CsCodec(gaussian_phi(stream(60, 0), 30, 40), basis="identity")
        assert np.array_equal(codec.psi, np.eye(40))

    def test_invalid_policies(self):
        phi = gaussian_phi(stream(61, 0), 30, 40)
        with pytest.raises(ValueError):
            CsCodec(phi, max_atoms=0)
        for tol in (-1.0, 1.0, 2.0, 1e300, float("nan")):  # OMP's tolerance is a fraction of ||y||
            with pytest.raises(ValueError, match="residual_tol"):
                CsCodec(phi, residual_tol=tol)

    @pytest.mark.parametrize(
        "entry, max_atoms, error",
        [(1j, 4, ValueError), (np.nan, 4, ValueError), (np.inf, 4, ValueError), (0.0, 2.7, TypeError)],
        ids=["complex", "nan", "inf", "fractional_atoms"],
    )
    def test_invalid_inputs_rejected(self, entry, max_atoms, error):
        # each would otherwise be truncated, cast away or carried into the Gram matrix
        phi = gaussian_phi(stream(61, 0), 30, 40).astype(np.result_type(entry))
        phi[2, 5] += entry
        with pytest.raises(error):
            CsCodec(phi, max_atoms=max_atoms)

    def test_zero_column_rejected(self):
        # decision recovery on this dictionary would silently return all zeros
        phi = gaussian_phi(stream(62, 0), 7, 10)
        phi[:, 3] = 0.0
        with pytest.raises(ValueError, match="zero column"):
            CsCodec(phi, basis="identity", max_atoms=4)


class TestOmp:
    def test_zero_input(self):
        codec = CsCodec(gaussian_phi(stream(62, 0), 20, 40), basis="identity", max_atoms=5)
        assert np.array_equal(omp(np.zeros(20), codec), np.zeros(40))

    def test_single_atom_exact(self):
        codec = CsCodec(gaussian_phi(stream(63, 0), 30, 60), basis="identity", max_atoms=5, residual_tol=1e-12)
        x = np.zeros(60)
        x[7] = 3.0
        got = omp(codec.phi @ x, codec)
        assert np.abs(got - x).max() < 1e-10

    def test_noiseless_sparse_recovery(self):
        codec = CsCodec(gaussian_phi(stream(64, 0), 480, 600), basis="identity", max_atoms=10, residual_tol=1e-10)
        failures = 0
        for t in range(100):
            rng = stream(65, t)
            x = np.zeros(600)
            idx = rng.choice(600, 10, replace=False)
            x[idx] = rng.standard_normal(10)
            got = omp(codec.phi @ x, codec)
            if np.abs(got - x).max() >= 1e-8:
                failures += 1
        assert failures <= 1

    def test_complex_coefficients_real_dictionary(self):
        codec = CsCodec(gaussian_phi(stream(68, 0), 40, 80), basis="identity", max_atoms=4, residual_tol=1e-12)
        x = np.zeros(80, dtype=complex)
        x[[5, 50]] = [2.0 + 1.0j, -0.5j]
        got = omp(codec.phi @ x, codec)
        assert np.abs(got - x).max() < 1e-10

    def test_residual_monotone_and_support_unique(self):
        a = gaussian_phi(stream(69, 0), 60, 120)
        y = stream(70, 0).standard_normal(60)  # generic dense target
        out = sparse._batch_omp(y[None], a, a.T @ a, 30, 0.0)
        support = out.support[0, : out.count[0]].tolist()
        res = np.sqrt(out.res2[0, : out.count[0] + 1]).tolist()
        assert all(b <= a_ + 1e-12 for a_, b in zip(res, res[1:]))
        assert len(set(support)) == len(support) == 30

    def test_orthogonal_target_breaks_down(self):
        # atoms span only the first two coordinates; y sits in the third
        phi = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        codec = CsCodec(phi, basis="identity", max_atoms=2, residual_tol=0.0)
        with pytest.raises(RecoveryError) as err:
            omp(np.array([0.0, 0.0, 1.0]), codec)
        assert err.value.partial.shape == (3,)


class TestReconstructRaw:
    def _codec(self):
        return CsCodec(gaussian_phi(stream(71, 0), 480, 600), basis="dct", max_atoms=60, residual_tol=1e-10)

    def test_sparse_in_basis_roundtrip(self):
        codec = self._codec()
        rng = stream(72, 0)
        coeffs = np.zeros(600)
        coeffs[rng.choice(600, 20, replace=False)] = rng.standard_normal(20)
        z = codec.psi.T @ coeffs  # exactly 20-sparse in the DCT domain
        z_hat = reconstruct_raw(compress(z, codec), codec)
        assert np.linalg.norm(z_hat - z) < 1e-8

    def test_error_hook(self):
        codec = self._codec()
        rng = stream(73, 0)
        coeffs = np.zeros(600)
        coeffs[rng.choice(600, 5, replace=False)] = rng.standard_normal(5)
        z = codec.psi.T @ coeffs
        z_hat = reconstruct_raw(compress(z, codec), codec)
        err = np.sum(np.abs(z_hat - z) ** 2, axis=-1)
        assert err == pytest.approx(np.linalg.norm(z_hat - z) ** 2, rel=1e-6, abs=1e-18)

    def test_degenerate_identity_roundtrip(self):
        # square invertible projection in test mode: recovery is exact
        codec = CsCodec(np.eye(24), basis="identity", max_atoms=24, residual_tol=1e-12)
        z = sample_complex_gaussian(stream(74, 0), 24, 1.0)
        z_hat = reconstruct_raw(compress(z, codec), codec)
        assert np.abs(z_hat - z).max() < 1e-10

    def test_block_matches_single_reports(self):
        codec = self._codec()
        block = sample_complex_gaussian(stream(79, 0), 2 * 600, 1.0).reshape(2, 600)
        z_hat = reconstruct_raw(compress(block, codec), codec)
        err = np.sum(np.abs(z_hat - block) ** 2, axis=-1)
        assert z_hat.shape == (2, 600) and err.shape == (2,)
        for i, z in enumerate(block):
            one = reconstruct_raw(compress(z, codec), codec)
            one_err = np.sum(np.abs(one - z) ** 2, axis=-1)
            assert np.abs(z_hat[i] - one).max() < 1e-10
            assert err[i] == pytest.approx(one_err, rel=1e-9)

    def test_codec_mismatch_rejected(self):
        codec = self._codec()
        other = CsCodec(gaussian_phi(stream(75, 0), 470, 600), basis="dct")
        report = compress(np.zeros(600), codec)
        with pytest.raises(ValueError, match="trailing length 470"):
            reconstruct_raw(report, other)


class TestReconstructDecisions:
    def _codec(self):
        return CsCodec(gaussian_phi(stream(76, 0), 70, 100), basis="identity", max_atoms=35)

    def test_all_zeros(self):
        codec = self._codec()
        got = reconstruct_decisions(compress(np.zeros(100), codec), codec)
        assert np.array_equal(got, np.zeros(100, dtype=np.int64))

    def test_sparse_binary_recovery(self):
        codec = self._codec()
        failures = 0
        for t in range(100):
            rng = stream(77, t)
            u = np.zeros(100)
            u[rng.choice(100, 3, replace=False)] = 1.0
            got = reconstruct_decisions(compress(u, codec), codec)
            failures += not np.array_equal(got, u.astype(np.int64))
        assert failures <= 5

    def test_dense_input_still_returns_binary_vector(self):
        codec = self._codec()
        got = reconstruct_decisions(compress(np.ones(100), codec), codec)
        assert got.shape == (100,)
        assert set(np.unique(got)) <= {0, 1}

    def test_block_matches_single_reports(self):
        codec = self._codec()
        u = np.zeros((3, 100))
        u[0, [4, 50]] = 1.0
        u[2] = 1.0  # dense: OMP stops at its 35-atom budget, and that fit is quantized
        got = reconstruct_decisions(compress(u, codec), codec)
        assert got.shape == (3, 100)
        for row, want in zip(got, u):
            assert np.array_equal(row, reconstruct_decisions(compress(want, codec), codec))

    def test_requires_identity_basis(self):
        codec = CsCodec(gaussian_phi(stream(78, 0), 70, 100), basis="dct", max_atoms=35)
        report = compress(np.zeros(100), codec)
        with pytest.raises(ValueError):
            reconstruct_decisions(report, codec)


class TestCorrelationHelpsCompression:
    def test_reconstruction_error_decreases_with_rho(self):
        # paired draws: only the node-correlation differs between runs
        from cirauth.channel import ChannelConfig, measure_block, noise_variance

        codec = CsCodec(gaussian_phi(stream(79, 0), 480, 600), basis="dct", max_atoms=60)
        normals = standard_normal_rows(80, range(60), 6 * 100 * 6)
        means = []
        for rho in (0.1, 0.9):
            cfg = ChannelConfig(
                n_nodes=100, n_taps=6, rho=rho, pdp=(1.0,) * 6, normalize_kronecker=False
            )
            errs = []
            for z in measure_block(normals, cfg, np.zeros(60, dtype=bool), np.full(60, noise_variance(20.0)))[1]:
                err = np.sum(np.abs(reconstruct_raw(compress(z, codec), codec) - z) ** 2, axis=-1)
                errs.append(err)
            means.append(np.mean(errs))
        assert means[1] < means[0]


@lru_cache(maxsize=None)
def _exact_codec(basis: str) -> CsCodec:
    # 120 x 128 Gaussian projection, a 60-atom budget: OMP may pick a few
    # wrong atoms but then fits them a zero coefficient
    return CsCodec(gaussian_phi(stream(3, 0), 120, 128), basis=basis, max_atoms=60, residual_tol=1e-12)


class TestOmpExactRecovery:
    @settings(max_examples=150, deadline=None)
    @given(basis=st.sampled_from(["identity", "dct"]), data=st.data())
    def test_k_sparse_recovered(self, basis, data):
        codec = _exact_codec(basis)
        k = data.draw(st.integers(1, codec.m // 4), label="k")
        support = data.draw(
            st.lists(st.integers(0, codec.n - 1), min_size=k, max_size=k, unique=True), label="support"
        )
        magnitudes = data.draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k), label="magnitudes")
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k), label="signs")
        coeffs = np.zeros(codec.n)
        coeffs[support] = np.multiply(signs, magnitudes)
        got = omp(codec.dictionary @ coeffs, codec)
        assert set(np.flatnonzero(np.abs(got) > 1e-8)) == set(support)
        assert np.abs(got - coeffs).max() < 1e-8
        # the same report through the codec's synthesis
        z = codec.psi.T @ coeffs
        assert np.abs(reconstruct_raw(compress(z, codec), codec) - z).max() < 1e-8


def _reference_omp(y, a, max_atoms, residual_tol=1e-6, gram=None):
    """Scalar OMP: one report, a growing Cholesky factor and three triangular solves per atom.

    The loop ``sparse.omp`` ran per report before the block kernel, kept as
    the equivalence reference.  Returns ``(coeffs, support)`` or raises
    :class:`RecoveryError` with the partial coefficients.
    """
    m, n = a.shape
    if gram is None:
        gram = a.conj().T @ a
    col_norms = np.sqrt(np.real(np.diag(gram)))
    out_dtype = np.result_type(a.dtype, y.dtype)
    ynorm2 = float(np.real(np.vdot(y, y)))
    budget = min(int(max_atoms), n)
    tol2 = (residual_tol**2) * ynorm2
    c0 = a.conj().T @ y
    c = c0.copy()
    support = []
    chol = np.zeros((budget, budget), dtype=out_dtype)
    gram_cols = np.empty((n, budget), dtype=gram.dtype)
    c0_sel = np.empty(budget, dtype=out_dtype)
    gamma = np.zeros(0, dtype=out_dtype)
    res2 = ynorm2

    def partial_result():
        partial = np.zeros(n, dtype=out_dtype)
        if support:
            partial[support] = gamma
        return partial

    while len(support) < budget and res2 > tol2:
        scores = np.abs(c) / col_norms
        if support:
            scores[support] = -1.0
        j = int(np.argmax(scores))
        if scores[j] <= 0.0:
            raise RecoveryError("residual is orthogonal to every remaining atom", partial_result())
        k = len(support)
        if k:
            w = sla.solve_triangular(chol[:k, :k], gram_cols[j, :k].conj(), lower=True, check_finite=False)
            d2 = float(np.real(gram[j, j]) - np.real(np.vdot(w, w)))
        else:
            d2 = float(np.real(gram[j, j]))
        if d2 <= 1e-12 * float(np.real(gram[j, j])):
            raise RecoveryError(f"atom {j} is numerically dependent on the selected support", partial_result())
        if k:
            chol[k, :k] = w.conj()
        chol[k, k] = np.sqrt(d2)
        gram_cols[:, k] = gram[:, j]
        c0_sel[k] = c0[j]
        support.append(j)
        k += 1
        half = sla.solve_triangular(chol[:k, :k], c0_sel[:k], lower=True, check_finite=False)
        gamma = sla.solve_triangular(chol[:k, :k].conj().T, half, lower=False, check_finite=False)
        new_res2 = max(ynorm2 - float(np.real(np.vdot(gamma, c0_sel[:k]))), 0.0)
        if new_res2 > res2 + 1e-12 * max(ynorm2, 1.0):
            raise RecoveryError("residual norm failed to decrease (numerical breakdown)", partial_result())
        res2 = new_res2
        c = c0 - gram_cols[:, :k] @ gamma
    coeffs = np.zeros(n, dtype=out_dtype)
    if support:
        coeffs[support] = gamma
    return coeffs, support


@lru_cache(maxsize=None)
def _fig4_codec() -> CsCodec:
    return CsCodec(gaussian_phi(stream(81, 0), 480, 600), basis="dct", max_atoms=60)


@lru_cache(maxsize=None)
def _fig5_codec() -> CsCodec:
    return CsCodec(gaussian_phi(stream(76, 0), 70, 100), basis="identity", max_atoms=35)


def _fig4_reports() -> np.ndarray:
    """Complex (5, 480) block: dense noise (twice), DCT-sparse plus noise, exactly sparse, zero."""
    codec = _fig4_codec()
    rng = stream(83, 0)
    coeffs = np.zeros(600, dtype=complex)
    coeffs[rng.choice(600, 12, replace=False)] = sample_complex_gaussian(rng, 12, 4.0)
    sparse_z = codec.psi.T @ coeffs
    rows = [sample_complex_gaussian(stream(82, i), 600, 1.0) for i in range(2)]
    rows += [sparse_z + sample_complex_gaussian(rng, 600, 0.05**2), sparse_z, np.zeros(600, dtype=complex)]
    return compress(np.array(rows), codec)


def _fig5_reports() -> np.ndarray:
    """(8, 70) block of decision vectors with 0 to 100 of the 100 nodes firing."""
    u = np.zeros((8, 100))
    for i, ones in enumerate((0, 1, 3, 10, 20, 30, 60, 100)):
        u[i, stream(84, i).choice(100, ones, replace=False)] = 1.0
    return compress(u, _fig5_codec())


def _span2_dictionary() -> np.ndarray:
    a = np.zeros((3, 2))
    a[0, 0] = a[1, 1] = 1.0  # atoms span the first two coordinates only
    return a


def _near_dependent_dictionary() -> np.ndarray:
    a = np.eye(3)
    a[:, 2] = np.array([1.0, 1.0, 1e-7]) / np.sqrt(2.0 + 1e-14)  # almost in span(e1, e2)
    return a


class TestBatchOmpEquivalence:
    """The block kernel against the scalar reference, row by row."""

    def _assert_matches_reference(self, ys, a, gram, max_atoms, residual_tol):
        res = sparse._batch_omp(ys, a, gram, max_atoms, residual_tol)
        for i, y in enumerate(ys):
            try:
                want, support = _reference_omp(y, a, max_atoms, residual_tol, gram=gram)
            except RecoveryError as err:
                assert res.errors[i] == str(err), f"row {i}: reference broke down ({err})"
                want, support = err.partial, np.flatnonzero(err.partial).tolist()
                assert sorted(res.support[i, : res.count[i]].tolist()) == sorted(support)
            else:
                assert res.errors[i] is None, f"row {i}: kernel broke down ({res.errors[i]}), reference did not"
                assert res.support[i, : res.count[i]].tolist() == support
            assert np.abs(res.coeffs[i] - want).max() < 1e-10
        return res

    def test_fig4_shaped(self):
        codec = _fig4_codec()
        res = self._assert_matches_reference(
            _fig4_reports(), codec.dictionary, codec.gram, codec.max_atoms, codec.residual_tol
        )
        assert res.count.tolist() == [60, 60, 60, 12, 0]  # the budget, the budget, the budget, the tolerance, zero

    def test_fig5_shaped(self):
        codec = _fig5_codec()
        res = self._assert_matches_reference(
            _fig5_reports(), codec.dictionary, codec.gram, codec.max_atoms, codec.residual_tol
        )
        assert res.count[0] == 0 and res.count[-1] == codec.max_atoms

    @pytest.mark.parametrize(
        "a, ys, flagged",
        [
            # y = e3, then e1 + 2 e3: the residual is orthogonal to every atom left; e1 + 2 e2 is fit exactly
            (_span2_dictionary(), np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]]), [True, True, False]),
            # atoms 1 and 0 are selected, then atom 2, which is almost in their span
            (_near_dependent_dictionary(), np.array([[1.0, 3.0, 1.0]]), [True]),
        ],
        ids=["orthogonal", "dependent"],
    )
    def test_breakdown_rows_flagged(self, a, ys, flagged):
        res = self._assert_matches_reference(ys, a, a.T @ a, max_atoms=3, residual_tol=0.0)
        assert [error is not None for error in res.errors] == flagged

    def test_breakdown_raised_by_raw_kept_by_decisions(self):
        # three copies of e1: after one atom the residual e2 is orthogonal to the rest
        codec = CsCodec(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]), basis="identity", max_atoms=3)
        report = np.array([[2.0, 0.0], [1.0, 1.0]])
        with pytest.raises(RecoveryError, match="orthogonal") as err:
            reconstruct_raw(report, codec)
        assert np.array_equal(err.value.partial, [1.0, 0.0, 0.0])
        assert np.array_equal(reconstruct_decisions(report, codec), [[1, 0, 0], [1, 0, 0]])


class TestBlockRowsIndependent:
    """A row's recovery is bit-identical alone, in a block and in a permuted block."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bit_identical(self, data):
        if data.draw(st.booleans(), label="decisions"):
            codec = _fig5_codec()
            rows = data.draw(st.lists(st.lists(st.integers(0, 99), unique=True), min_size=1, max_size=6), label="ones")
            x = np.zeros((len(rows), 100))
            for i, ones in enumerate(rows):
                x[i, ones] = 1.0
        else:
            codec = _exact_codec("dct")
            seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6), label="seeds")
            sparsity = data.draw(st.lists(st.integers(0, 40), min_size=len(seeds), max_size=len(seeds)), label="k")
            x = np.zeros((len(seeds), codec.n), dtype=complex)
            for i, (seed, k) in enumerate(zip(seeds, sparsity)):
                rng = stream(seed, 0)
                noise = sample_complex_gaussian(rng, codec.n, 1.0)
                x[i, rng.choice(codec.n, k, replace=False)] = 10.0  # 0 spikes: pure noise
                x[i] += noise
        y = codec.phi @ x.T  # one report per column, computed once and shared by every recovery below
        block = np.ascontiguousarray(y.T)
        got = sparse._recover(block, codec, keep_partial=True).coeffs
        perm = data.draw(st.permutations(range(len(x))), label="perm")
        permuted = sparse._recover(block[perm], codec, keep_partial=True).coeffs
        assert np.array_equal(permuted, got[perm])
        for i, row in enumerate(block):
            alone = sparse._recover(row.copy(), codec, keep_partial=True).coeffs
            assert np.array_equal(alone[0], got[i])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def _report_block(draw, decisions: bool) -> np.ndarray:
    """A fig5-shaped block of decision vectors, or a fig4-shaped block of complex raw reports."""
    if decisions:
        rows = draw(st.lists(st.lists(st.integers(0, 99), unique=True), min_size=1, max_size=8), label="ones")
        x = np.zeros((len(rows), 100))
        for i, ones in enumerate(rows):
            x[i, ones] = 1.0
        return x
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6), label="seeds")
    sparsity = draw(st.lists(st.integers(0, 80), min_size=len(seeds), max_size=len(seeds)), label="k")
    x = np.zeros((len(seeds), 600), dtype=complex)
    for i, (seed, k) in enumerate(zip(seeds, sparsity)):
        rng = stream(seed, 0)
        coeffs = np.zeros(600, dtype=complex)
        coeffs[rng.choice(600, k, replace=False)] = sample_complex_gaussian(rng, k, 25.0)
        x[i] = _fig4_codec().psi.T @ coeffs + sample_complex_gaussian(rng, 600, 1.0)  # 0 atoms: pure noise
    return x


class TestBlockHeightExact:
    """Projection and synthesis of a report do not depend on its block: any height, any order."""

    @settings(max_examples=30, deadline=None)
    @given(decisions=st.booleans(), data=st.data())
    def test_rows_bit_identical_to_one_report_calls(self, decisions, data):
        codec = _fig5_codec() if decisions else _fig4_codec()
        x = data.draw(_report_block(decisions), label="block")
        perm = data.draw(st.permutations(range(len(x))), label="perm")
        block = compress(x, codec)
        assert _same_bits(compress(x[perm], codec), block[perm])
        for row, want in zip(x, block):
            assert _same_bits(compress(row, codec), want)
        if decisions:
            return
        z_hat = reconstruct_raw(block, codec)
        permuted = reconstruct_raw(block[perm], codec)
        assert _same_bits(permuted, z_hat[perm])
        for y, want in zip(block, z_hat):
            assert _same_bits(reconstruct_raw(y.copy(), codec), want)


class TestOmpResidualInvariant:
    """Every row's residual history never increases and its support never repeats an atom.

    The kernel has no runtime no-decrease check: |z|^2 only grows, so the
    residual max(||y||^2 - |z|^2, 0) cannot rise.  This holds it to that.
    """

    @settings(max_examples=30, deadline=None)
    @given(decisions=st.booleans(), data=st.data())
    def test_history_non_increasing_support_unique(self, decisions, data):
        codec = _fig5_codec() if decisions else _fig4_codec()
        ys = compress(data.draw(_report_block(decisions), label="block"), codec)
        res = sparse._batch_omp(ys, codec.dictionary, codec.gram, codec.max_atoms, codec.residual_tol)
        for i, k in enumerate(res.count):
            history = res.res2[i, : k + 1]
            assert np.all(history[1:] <= history[:-1]), f"row {i}: {history}"
            assert len(set(res.support[i, :k].tolist())) == k


class TestDistinctReportsOnce:
    """A block with duplicated reports recovers each distinct report once, with one-report results."""

    @settings(max_examples=30, deadline=None)
    @given(decisions=st.booleans(), data=st.data())
    def test_duplicates_get_one_report_results(self, decisions, data):
        codec = _fig5_codec() if decisions else _fig4_codec()
        base = compress(data.draw(_report_block(decisions), label="block"), codec)
        extra = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=12), label="duplicates")
        picks = data.draw(st.permutations(list(range(len(base))) + extra), label="order")
        with mock.patch.object(sparse, "_batch_omp", wraps=sparse._batch_omp) as spy:
            res = sparse._recover(base[picks], codec, keep_partial=True)
        (call,) = spy.call_args_list
        seen = [row.tobytes() for row in call.args[0]]
        assert sorted(seen) == sorted({row.tobytes() for row in base})  # every distinct row, once
        for i, y in enumerate(base[picks]):
            alone = sparse._batch_omp(y[None], codec.dictionary, codec.gram, codec.max_atoms, codec.residual_tol)
            assert res.errors[i] == alone.errors[0]
            for field in ("coeffs", "support", "count", "res2"):
                assert _same_bits(getattr(res, field)[i], getattr(alone, field)[0]), (i, field)


class TestDecisionRecoveryAtomCap:
    """A recovered decision vector has at most ``max_atoms`` ones, however many nodes fired.

    So with fig5's 35-atom budget, majority over 100 nodes (51 votes) never fires.
    """

    @settings(max_examples=30, deadline=None)
    @given(max_atoms=st.integers(1, 69), data=st.data())
    def test_at_most_max_atoms_ones(self, max_atoms, data):
        codec = CsCodec(_fig5_codec().phi, basis="identity", max_atoms=max_atoms)
        rows = data.draw(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 2**32 - 1)), min_size=1, max_size=6),
                         label="(ones, seed) per row")
        x = np.zeros((len(rows), 100))
        for i, (ones, seed) in enumerate(rows):
            x[i, stream(seed, 0).choice(100, ones, replace=False)] = 1.0
        u = reconstruct_decisions(compress(x, codec), codec)
        assert np.all(u.sum(axis=1) <= max_atoms)


# The Batch-OMP kernel as it stood before stopped rows were retired by swap-remove
# (every stop re-copied the filled slabs of every live row, keeping the rows in order),
# frozen here as the bit-level reference for the kernel in ``src``.
def _ref_batch_omp(ys, a, gram, max_atoms, residual_tol):
    complex_y = np.iscomplexobj(ys)
    ys = np.stack((ys.real, ys.imag), axis=1) if complex_y else ys[:, None, :]
    ys = ys.astype(np.float64)
    t, p, _ = ys.shape
    n = gram.shape[0]
    budget = min(int(max_atoms), n)
    gdiag = gram.diagonal().copy()
    ynorm2 = np.sum(np.square(ys).reshape(t, -1), axis=1)
    coeffs = np.zeros((t, p, n))
    errors = [None] * t
    chosen = np.zeros((t, budget), dtype=np.intp)
    count = np.zeros(t, dtype=np.intp)
    history = np.zeros((t, budget + 1))
    history[:, 0] = ynorm2

    tol2 = residual_tol**2 * ynorm2
    rows = np.flatnonzero(ynorm2 > tol2)
    width = budget + n
    c = ys[rows] @ a
    yn2, tol2, zz = ynorm2[rows], tol2[rows], np.zeros(len(rows))
    weight = np.tile(1.0 / gdiag, (len(rows), 1))
    f = np.zeros((budget, len(rows), width))
    f[np.arange(budget), :, np.arange(budget)] = 1.0
    f_flat, slabs = f.reshape(-1), np.arange(budget) * len(rows) * width
    z = np.zeros((budget, len(rows), p))
    js = np.zeros((budget, len(rows)), dtype=np.intp)
    zzs = np.zeros((budget, len(rows)))
    sq, score, tmp = np.empty(c.shape), np.empty(weight.shape), np.empty((len(rows), 1, width))
    parts, ar = np.arange(p), np.arange(0)
    for k in range(budget):
        if not len(rows):
            break
        if len(ar) != len(rows):
            ar = np.arange(len(rows))
            row_n, row_c, row_f = ar * n, (ar[:, None] * p + parts) * n, ar * width + budget
        np.square(c, out=sq)
        if p == 2:
            np.add(sq[:, 0], sq[:, 1], out=score)
            np.multiply(score, weight, out=score)
        else:
            np.multiply(sq[:, 0], weight, out=score)
        j = score.argmax(axis=1)
        jn = row_n + j
        orthogonal = score.take(jn) <= 0.0
        w = f_flat.take((row_f + j)[:, None] + slabs[:k])
        gjj = gdiag.take(j)
        d2 = gjj - np.add.reduce(w * w, axis=1)
        dependent = d2 <= 1e-12 * gjj
        broken = orthogonal | dependent
        inv_d = 1.0 / np.sqrt(np.where(broken, gjj, d2))
        fk = f[k]
        gram.take(j, axis=0, out=fk[:, budget:], mode="clip")
        np.matmul(w[:, None, :], f[:k].transpose(1, 0, 2), out=tmp)
        fk -= tmp[:, 0]
        fk *= inv_d[:, None]
        zk = c.take(row_c + j[:, None]) * inv_d[:, None]
        np.multiply(zk[:, :, None], fk[:, None, budget:], out=sq)
        c -= sq
        z[k], js[k] = zk, j
        zz = zz + np.add.reduce(zk * zk, axis=1)
        zzs[k] = zz
        weight.put(jn, 0.0)
        stop = broken | (np.maximum(yn2 - zz, 0.0) <= tol2) if k + 1 < budget else np.ones(len(rows), bool)
        if not np.logical_or.reduce(stop):
            continue
        ended = np.flatnonzero(stop)
        r = rows[ended]
        history[r, 1 : k + 2] = np.maximum(yn2[ended, None] - zzs[: k + 1, ended].T, 0.0)
        chosen[r, : k + 1] = js[: k + 1, ended].T
        groups = ((ended, k + 1),)
        if np.logical_or.reduce(broken):
            for i in np.flatnonzero(broken):
                errors[rows[i]] = (
                    "residual is orthogonal to every remaining atom" if orthogonal[i]
                    else f"atom {j[i]} is numerically dependent on the selected support"
                )
            groups = ((np.flatnonzero(broken), k), (np.flatnonzero(stop & ~broken), k + 1))
        for done, kk in groups:
            if len(done):
                r = rows[done]
                zd = np.ascontiguousarray(z[:kk, done].transpose(1, 2, 0))
                fd = np.ascontiguousarray(f[:kk, done, :kk].transpose(1, 0, 2))
                coeffs[r[:, None, None], parts[None, :, None], chosen[r, None, :kk]] = zd @ fd
                count[r] = kk
        keep = ~stop
        rows, yn2, tol2, zz, c, weight = (x[keep] for x in (rows, yn2, tol2, zz, c, weight))
        na = len(rows)
        for x in (f, z, js, zzs):
            x[: k + 1, :na] = x[: k + 1, keep]
        f, z, js, zzs = (x[:, :na] for x in (f, z, js, zzs))
        sq, score, tmp = sq[:na], score[:na], tmp[:na]
    coeffs = coeffs[:, 0] + 1j * coeffs[:, 1] if complex_y else coeffs[:, 0]
    return sparse._OmpResult(coeffs=coeffs, errors=errors, support=chosen, count=count, res2=history)


def _padded_dependent_dictionary() -> np.ndarray:
    a = np.eye(4)
    a[:3, :3] = _near_dependent_dictionary()  # plus atom e4, so rows can go on past the dependent atom
    return a


@st.composite
def _kernel_case(draw):
    """(ys, a, gram, max_atoms, residual_tol) of a block whose rows stop at many different iterations."""
    kind = draw(st.sampled_from(["decisions", "raw", "breakdown"]), label="kind")
    if kind == "decisions":  # fig5-shaped: all-zero, one-hot, sparse and dense rows
        codec = _fig5_codec()
        ones = draw(st.lists(st.one_of(st.just(0), st.just(1), st.integers(2, 12), st.integers(13, 100)),
                             min_size=1, max_size=10), label="ones per row")
        seed = draw(st.integers(0, 2**32 - 1), label="seed")
        x = np.zeros((len(ones), 100))
        for i, k in enumerate(ones):
            x[i, stream(seed, i).choice(100, k, replace=False)] = 1.0
        ys, a, gram = compress(x, codec), codec.dictionary, codec.gram
        max_atoms = draw(st.sampled_from([codec.max_atoms, 1, 12, codec.m]), label="max_atoms")
    elif kind == "raw":  # fig4-shaped complex reports
        codec = _fig4_codec()
        ys, a, gram = compress(draw(_report_block(False), label="block"), codec), codec.dictionary, codec.gram
        max_atoms = draw(st.sampled_from([codec.max_atoms, 7]), label="max_atoms")
    else:  # the breakdown rows of test_breakdown_rows_flagged among random rows that go on
        a, broken = draw(st.sampled_from([
            (_span2_dictionary(), [[0.0, 0.0, 1.0], [1.0, 0.0, 2.0]]),
            (_near_dependent_dictionary(), [[1.0, 3.0, 1.0]]),
            (_padded_dependent_dictionary(), [[1.0, 3.0, 1.0, 0.0]]),
        ]), label="dictionary")
        others = draw(st.lists(st.lists(st.integers(-4, 4), min_size=a.shape[0], max_size=a.shape[0]),
                               max_size=6), label="other rows")
        ys = np.array(broken + others, dtype=float)
        ys = ys[draw(st.permutations(range(len(ys))), label="order")]
        gram = a.T @ a
        max_atoms = draw(st.integers(1, a.shape[1] + 1), label="max_atoms")
    if draw(st.booleans(), label="duplicate"):
        ys = ys[draw(st.lists(st.integers(0, len(ys) - 1), min_size=1, max_size=2 * len(ys)), label="picks")]
    residual_tol = draw(st.sampled_from([0.0, 1e-6, 0.1, 0.5]), label="residual_tol")
    return np.ascontiguousarray(ys), a, gram, max_atoms, residual_tol


class TestBatchOmpReference:
    """The kernel is bit-identical to the frozen reference in every result field."""

    @settings(max_examples=80, deadline=None)
    @given(case=_kernel_case())
    def test_bit_identical(self, case):
        got, want = sparse._batch_omp(*case), _ref_batch_omp(*case)
        assert got.errors == want.errors
        for field in ("coeffs", "support", "count", "res2"):
            assert _same_bits(getattr(got, field), getattr(want, field)), field
