import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bubblefem import (
    BoundaryCondition,
    EnrichmentKind,
    IllPosedProblemError,
    LINEAR,
    Mesh1D,
    QUADRATIC_BUBBLE,
    SolutionField,
    SteadyProblem,
    TransientProblem,
    TransportCoefficients,
    polynomial_bubble,
    uniform_mesh,
)


class TestTransportCoefficients:
    def test_stores_signed_values(self):
        c = TransportCoefficients(-0.01, 0.0, 1.0)
        assert (c.epsilon, c.kappa, c.lambda_) == (-0.01, 0.0, 1.0)

    def test_rejects_null_operator(self):
        with pytest.raises(ValueError):
            TransportCoefficients(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            TransportCoefficients(bad, 0.0, 1.0)


class TestBoundaryCondition:
    def test_factories(self):
        assert BoundaryCondition.dirichlet(1.5).is_dirichlet
        assert not BoundaryCondition.neumann_flux(0.0).is_dirichlet

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BoundaryCondition.dirichlet(math.inf)


class TestEnrichmentKind:
    def test_aliases(self):
        assert QUADRATIC_BUBBLE == polynomial_bubble(2)
        assert EnrichmentKind(3).bubble_count == 2
        assert LINEAR.bubble_count == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            EnrichmentKind(0)
        with pytest.raises(ValueError):
            polynomial_bubble(1)
        with pytest.raises(ValueError):
            polynomial_bubble(2.7)


class TestUniformMesh:
    def test_benchmark_grid(self):
        mesh = uniform_mesh(0.0, 10.0, 50)
        assert mesh.nodes.size == 51
        # lengths equal up to round-off at the node magnitude
        assert mesh.lengths == pytest.approx(np.full(50, 0.2), abs=4 * np.spacing(10.0))

    def test_two_element_benchmark(self):
        mesh = uniform_mesh(0.0, math.pi, 2)
        assert mesh.nodes == pytest.approx([0.0, math.pi / 2, math.pi], abs=0)

    def test_single_element(self):
        assert uniform_mesh(0.0, 1.0, 1).nodes.tolist() == [0.0, 1.0]

    def test_arguments(self):
        with pytest.raises(ValueError):
            uniform_mesh(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            uniform_mesh(1.0, 0.0, 4)


class TestMesh1D:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Mesh1D([0.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            Mesh1D([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            Mesh1D([1.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_nodes(self, bad):
        for nodes in ([0.0, 1.0, bad], [bad, 0.0, 1.0]):
            with pytest.raises(ValueError, match="finite"):
                Mesh1D(nodes)

    def test_lengths_read_only(self):
        mesh = uniform_mesh(0.0, 1.0, 4)
        assert not mesh.lengths.flags.writeable
        with pytest.raises(ValueError):
            mesh.lengths[0] = 1.0

    def test_nodes_and_lengths_cannot_be_reassigned(self):
        # the scalar lookups read a node list built once from ``nodes``
        mesh = uniform_mesh(0.0, 1.0, 4)
        assert mesh.element_index(0.3) == 1
        for name in ("nodes", "lengths"):
            with pytest.raises(AttributeError):
                setattr(mesh, name, np.array([0.0, 2.0, 4.0, 6.0, 8.0]))
        assert mesh.element_index(0.3) == 1 and (mesh.a, mesh.b) == (0.0, 1.0)
        assert np.array_equal(mesh.lengths, np.full(4, 0.25))

    def test_nonuniform_lengths(self):
        mesh = Mesh1D([0.0, 0.1, 0.5, 2.0])
        assert mesh.lengths == pytest.approx([0.1, 0.4, 1.5])
        assert mesh.element_index(0.05) == 0
        assert mesh.element_index(2.0) == 2
        for outside in (-0.1, math.nan):
            with pytest.raises(ValueError):
                mesh.element_index(outside)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        start=st.floats(-1e3, 1e3),
        lengths=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=40),
        data=st.data(),
    )
    def test_locate_matches_searchsorted(self, start, lengths, data):
        # right-open elements, b in the last one: searchsorted "right" with
        # the last element's index as its cap
        mesh = Mesh1D(start + np.cumsum([0.0] + lengths))
        nodes, a, b = mesh.nodes, mesh.a, mesh.b
        points = data.draw(st.lists(st.floats(a, b), max_size=30))
        for x in points + nodes.tolist() + [a, b, float(np.nextafter(b, a))]:
            expected = min(int(np.searchsorted(nodes, x, "right")) - 1, mesh.n_elements - 1)
            assert mesh.element_index(x) == expected
            j, local, length = mesh._locate(x)
            assert j == expected
            assert np.float64(local).tobytes() == np.float64(x - nodes[j]).tobytes()
            assert np.float64(length).tobytes() == mesh.lengths[j].tobytes()
        below, above = float(np.nextafter(a, -math.inf)), float(np.nextafter(b, math.inf))
        for outside in (math.nan, math.inf, -math.inf, below, above):
            for locate in (mesh.element_index, mesh._locate):
                with pytest.raises(ValueError, match="outside domain"):
                    locate(outside)


class TestProblems:
    def test_steady_needs_a_dirichlet_end(self):
        coeffs = TransportCoefficients(-1.0, 0.0, 1.0)
        with pytest.raises(IllPosedProblemError):
            SteadyProblem(
                coefficients=coeffs,
                domain=(0.0, 1.0),
                bc_left=BoundaryCondition.neumann_flux(0.0),
                bc_right=BoundaryCondition.neumann_flux(1.0),
            )

    def test_steady_domain_ordering(self):
        coeffs = TransportCoefficients(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            SteadyProblem(
                coefficients=coeffs,
                domain=(1.0, 0.0),
                bc_left=BoundaryCondition.dirichlet(0.0),
                bc_right=BoundaryCondition.dirichlet(0.0),
            )

    def test_transient_profile_must_vanish_at_ends(self):
        with pytest.raises(ValueError):
            TransientProblem(epsilon=-1.0, domain=(0.0, math.pi), initial_profile=math.cos)
        TransientProblem(epsilon=-1.0, domain=(0.0, math.pi), initial_profile=math.sin)

    @pytest.mark.parametrize("domain", [(math.pi, 0.0), (1.0, 1.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_transient_domain_must_be_a_finite_interval(self, domain):
        with pytest.raises(ValueError, match="invalid domain"):
            TransientProblem(epsilon=-1.0, domain=domain, initial_profile=math.sin)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_transient_coefficients_must_be_finite(self, bad):
        for epsilon, lambda_ in ((bad, 1.0), (-1.0, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                TransientProblem(epsilon=epsilon, domain=(0.0, math.pi), initial_profile=math.sin,
                                 lambda_=lambda_)


def two_element_field(bubble_value=None):
    """Two elements on [0, pi]; ``bubble_value`` is the x-coordinate
    coefficient c of x (l - x), held by the field as d = c l^2."""
    mesh = uniform_mesh(0.0, math.pi, 2)
    if bubble_value is None:
        return SolutionField(mesh, [0.0, 1.0, 0.0], LINEAR)
    coeffs = np.full((2, 1), bubble_value * (math.pi / 2) ** 2)
    return SolutionField(mesh, [0.0, 1.0, 0.0], QUADRATIC_BUBBLE, coeffs)


class TestEvalField:
    def test_linear_interpolant(self):
        field = two_element_field()
        assert field.value(math.pi / 16) == pytest.approx(0.125)

    def test_quadratic_bubble_profile(self):
        field = two_element_field(bubble_value=0.206)
        assert field.value(math.pi / 16) == pytest.approx(0.180, abs=1e-3)

    def test_nodal_values_exact(self):
        fields = [two_element_field(bubble_value=0.73)]
        # random non-uniform mesh with an inexact right end b, orders 1-5
        rng = np.random.default_rng(31)
        mesh = Mesh1D(np.cumsum(np.concatenate(([-0.3], rng.uniform(0.01, 1.0, 17)))))
        for order in range(1, 6):
            nodal = rng.normal(size=18) * 10.0 ** rng.uniform(-300, 300, size=18)
            bubbles = rng.normal(size=(17, order - 1)) * 1e3
            fields.append(SolutionField(mesh, nodal, EnrichmentKind(order), bubbles))
        for field in fields:
            for x, expected in zip(field.mesh.nodes, field.nodal_values):
                assert field.value(float(x)) == expected

    def test_continuity_at_interior_nodes(self):
        field = two_element_field(bubble_value=-1.4)
        x = math.pi / 2
        left = field.value(np.nextafter(x, 0.0))
        right = field.value(np.nextafter(x, math.pi))
        assert left == pytest.approx(right, abs=1e-13)
        assert left == pytest.approx(field.nodal_values[1], abs=1e-13)

    def test_domain_error(self):
        field = two_element_field()
        for x in (-0.01, math.pi + 0.01, math.nan, math.inf, -math.inf):
            for point in (x, np.float64(x)):
                with pytest.raises(ValueError):
                    field.value(point)
                with pytest.raises(ValueError):
                    field.mesh.element_index(point)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        order=st.integers(1, 6),
        start=st.floats(-3.0, 1.0),
        lengths=st.lists(st.floats(1e-3, 1.5), min_size=1, max_size=25),
        grading=st.floats(-6.0, 2.8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scalar_value_is_the_element_kernel(self, order, start, lengths, grading, seed):
        # byte for byte, for a Python float, an np.float64 and an int; each
        # length is scaled by 10^(grading u), u uniform in [0, 1], so that a
        # mesh mixes lengths from 1e-9 to 1e3
        rng = np.random.default_rng(seed)
        scaled = np.array(lengths) * 10.0 ** (grading * rng.uniform(size=len(lengths)))
        mesh = Mesh1D(start + np.cumsum(np.concatenate(([0.0], scaled))))
        n = mesh.n_elements
        nodal = rng.normal(size=n + 1) * 10.0 ** rng.uniform(-3, 3, size=n + 1)
        field = SolutionField(
            mesh, nodal, EnrichmentKind(order), rng.normal(size=(n, order - 1)) * 100.0
        )
        inner = mesh.nodes[1:-1]
        xs = np.concatenate((
            rng.uniform(mesh.a, mesh.b, 30), mesh.nodes, [mesh.b],
            np.nextafter(inner, -math.inf), np.nextafter(inner, math.inf),
        )).tolist()
        ints = range(math.ceil(mesh.a), math.floor(mesh.b) + 1)
        ints = list(ints[:: max(1, len(ints) // 40)])
        for x in xs + ints:
            j = mesh.element_index(x)
            expected = field.eval_on_element(j, x - mesh.nodes[j]).tobytes()
            points = (x,) if isinstance(x, int) else (x, np.float64(x))
            for point in points:
                got = field.value(point)
                assert type(got) is float
                assert np.float64(got).tobytes() == expected

    def test_field_keeps_read_only_copies_of_its_inputs(self):
        mesh = uniform_mesh(0.0, 1.0, 4)
        nodal, bubbles = np.arange(5.0), np.full((4, 2), 0.5)
        evaluated = SolutionField(mesh, nodal, EnrichmentKind(3), bubbles)
        before = evaluated.value(0.3)
        untouched = SolutionField(mesh, nodal, EnrichmentKind(3), bubbles)
        nodal[:] = 7.0
        bubbles[:] = -1.0
        for field in (evaluated, untouched):
            assert field.value(0.3) == before
            assert not field.nodal_values.flags.writeable
            assert not field.bubble_coeffs.flags.writeable
            with pytest.raises(ValueError):
                field.nodal_values[0] = 1.0

    def test_attributes_cannot_be_reassigned(self):
        # the scalar value reads lists built once from these attributes
        mesh = uniform_mesh(0.0, 1.0, 4)
        field = SolutionField(mesh, 4 * mesh.nodes, QUADRATIC_BUBBLE, np.full((4, 1), 0.5))
        before = field.value(0.3)
        replacements = {
            "mesh": uniform_mesh(0.0, 2.0, 4),
            "nodal_values": np.zeros(5),
            "enrichment": EnrichmentKind(3),
            "bubble_coeffs": np.zeros((4, 1)),
        }
        for name, new in replacements.items():
            with pytest.raises(AttributeError):
                setattr(field, name, new)
        assert field.value(0.3) == before
        assert np.float64(before).tobytes() == field.eval_on_element(1, 0.3 - 0.25).tobytes()

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_index_array_matches_single_element_calls(self, order):
        rng = np.random.default_rng(100 + order)
        mesh = Mesh1D(np.cumsum(np.concatenate(([0.0], rng.uniform(0.05, 1.0, 12)))))
        field = SolutionField(
            mesh, rng.normal(size=13), EnrichmentKind(order), rng.normal(size=(12, order - 1))
        )
        j = rng.integers(0, 12, size=30)
        local = rng.uniform(0.0, 1.0, size=(30, 4)) * mesh.lengths[j][:, None]
        single = np.array([field.eval_on_element(k, row) for k, row in zip(j, local)])
        batched = field.eval_on_element(j, local)
        assert batched.shape == local.shape
        assert batched.tobytes() == single.tobytes()
        one_point = field.eval_on_element(j, local[:, 0])
        assert one_point.tobytes() == single[:, 0].tobytes()

    def test_element_index_out_of_range(self):
        field = SolutionField(uniform_mesh(0.0, 4.0, 4), np.arange(5.0))
        for j in (-1, 4, np.array([0, -1]), np.array([3, 4])):
            with pytest.raises(ValueError):
                field.eval_on_element(j, np.full(np.shape(j), 0.1))
        assert field.eval_on_element(3, 0.5) == 3.5

    def test_shape_validation(self):
        mesh = uniform_mesh(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            SolutionField(mesh, [0.0, 1.0])
        with pytest.raises(ValueError):
            SolutionField(mesh, [0.0, 1.0, 0.0], QUADRATIC_BUBBLE, np.zeros((2, 2)))
