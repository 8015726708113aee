"""Tests for density-surface extraction and the DensitySurface type."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cascade.density import DensitySurface, compute_density_surface
from repro.cascade.events import Story, Vote


def simple_story():
    """5 users at distance 1, 10 at distance 2; a hand-checkable vote pattern."""
    votes = [
        Vote(0.0, 0),       # initiator (distance not assigned)
        Vote(0.5, 1),       # distance 1
        Vote(1.5, 2),       # distance 1
        Vote(1.5, 10),      # distance 2
        Vote(2.5, 11),      # distance 2
        Vote(2.5, 12),      # distance 2
        Vote(40.0, 3),      # distance 1
    ]
    return Story(story_id=1, initiator=0, votes=votes)


def simple_distances():
    distances = {user: 1 for user in range(1, 6)}
    distances.update({user: 2 for user in range(10, 20)})
    return distances


class TestComputeDensitySurface:
    def test_hand_computed_values(self):
        surface = compute_density_surface(
            simple_story(), simple_distances(), [1, 2], times=[1.0, 2.0, 3.0, 50.0]
        )
        # Hour 1: one voter of 5 at distance 1 -> 20%; none of 10 at distance 2.
        assert surface.density(1, 1.0) == pytest.approx(20.0)
        assert surface.density(2, 1.0) == pytest.approx(0.0)
        # Hour 2: two of 5 -> 40%; one of 10 -> 10%.
        assert surface.density(1, 2.0) == pytest.approx(40.0)
        assert surface.density(2, 2.0) == pytest.approx(10.0)
        # Hour 3: 40% and 30%.
        assert surface.density(2, 3.0) == pytest.approx(30.0)
        # Hour 50: the late vote at distance 1 arrives -> 60%.
        assert surface.density(1, 50.0) == pytest.approx(60.0)

    def test_fraction_unit(self):
        surface = compute_density_surface(
            simple_story(), simple_distances(), [1, 2], times=[2.0], unit="fraction"
        )
        assert surface.density(1, 2.0) == pytest.approx(0.4)

    def test_unknown_users_ignored(self):
        story = simple_story()
        story.add_vote(Vote(1.0, 999))  # not in the distance map
        surface = compute_density_surface(story, simple_distances(), [1, 2], times=[2.0])
        assert surface.density(1, 2.0) == pytest.approx(40.0)

    def test_group_sizes_recorded(self):
        surface = compute_density_surface(simple_story(), simple_distances(), [1, 2], times=[1.0])
        assert list(surface.group_sizes) == [5, 10]

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            compute_density_surface(simple_story(), simple_distances(), [1, 2, 3], times=[1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_density_surface(simple_story(), simple_distances(), [], times=[1.0])
        with pytest.raises(ValueError):
            compute_density_surface(simple_story(), simple_distances(), [1], times=[])
        with pytest.raises(ValueError):
            compute_density_surface(simple_story(), simple_distances(), [1], times=[1.0], unit="pct")

    def test_metadata_merged(self):
        surface = compute_density_surface(
            simple_story(), simple_distances(), [1, 2], times=[1.0], metadata={"story": "s1"}
        )
        assert surface.metadata["story"] == "s1"
        assert surface.metadata["story_id"] == 1

    def test_duplicate_votes_counted_once(self):
        votes = [Vote(0.0, 0), Vote(1.0, 1), Vote(2.0, 1)]
        story = Story(story_id=2, initiator=0, votes=votes)
        surface = compute_density_surface(story, {1: 1, 2: 1}, [1], times=[3.0])
        assert surface.density(1, 3.0) == pytest.approx(50.0)


class TestDensitySurfaceType:
    def _surface(self):
        return DensitySurface(
            distances=[1, 2, 3],
            times=[1.0, 2.0, 3.0],
            values=np.array([[1.0, 0.5, 0.2], [2.0, 1.0, 0.4], [3.0, 1.5, 0.6]]),
            group_sizes=[10, 20, 30],
        )

    def test_slicing(self):
        surface = self._surface()
        assert np.allclose(surface.time_series(2), [0.5, 1.0, 1.5])
        assert np.allclose(surface.profile(2.0), [2.0, 1.0, 0.4])
        assert np.allclose(surface.initial_profile(), [1.0, 0.5, 0.2])
        assert surface.density(3, 3.0) == pytest.approx(0.6)

    def test_missing_keys_raise(self):
        surface = self._surface()
        with pytest.raises(KeyError):
            surface.time_series(9)
        with pytest.raises(KeyError):
            surface.profile(9.0)

    def test_restrict_times(self):
        restricted = self._surface().restrict_times([2.0, 3.0])
        assert list(restricted.times) == [2.0, 3.0]
        assert np.allclose(restricted.initial_profile(), [2.0, 1.0, 0.4])

    def test_restrict_distances(self):
        restricted = self._surface().restrict_distances([1, 3])
        assert list(restricted.distances) == [1.0, 3.0]
        assert np.allclose(restricted.profile(1.0), [1.0, 0.2])
        assert list(restricted.group_sizes) == [10, 30]

    def test_unit_conversion_round_trip(self):
        surface = self._surface()
        fraction = surface.as_unit("fraction")
        assert fraction.density(1, 1.0) == pytest.approx(0.01)
        back = fraction.as_unit("percent")
        assert np.allclose(back.values, surface.values)

    def test_as_unit_same_is_identity(self):
        surface = self._surface()
        assert surface.as_unit("percent") is surface

    def test_max_density(self):
        assert self._surface().max_density == pytest.approx(3.0)

    def test_monotone_check(self):
        assert self._surface().is_monotone_in_time()
        bad = DensitySurface(
            distances=[1],
            times=[1.0, 2.0],
            values=np.array([[2.0], [1.0]]),
            group_sizes=[5],
        )
        assert not bad.is_monotone_in_time()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DensitySurface(
                distances=[1, 2],
                times=[1.0],
                values=np.zeros((2, 2)),
                group_sizes=[1, 1],
            )
        with pytest.raises(ValueError):
            DensitySurface(
                distances=[1, 2],
                times=[1.0],
                values=np.zeros((1, 2)),
                group_sizes=[1],
            )
        with pytest.raises(ValueError):
            DensitySurface(
                distances=[1],
                times=[1.0],
                values=np.array([[-1.0]]),
                group_sizes=[1],
            )
        with pytest.raises(ValueError):
            DensitySurface(
                distances=[1],
                times=[1.0],
                values=np.array([[1.0]]),
                group_sizes=[1],
                unit="per-mille",
            )


def isclose_scan(times, time):
    """The row lookup as a plain first-``np.isclose`` scan (the map's oracle)."""
    matches = np.nonzero(np.isclose(times, time))[0]
    if matches.size == 0:
        raise KeyError(time)
    return int(matches[0])


class TestTimeIndexMap:
    def _surface(self, times):
        times = np.asarray(times, dtype=float)
        return DensitySurface(
            distances=[1, 2],
            times=times,
            values=np.arange(2.0 * times.size).reshape(times.size, 2),
            group_sizes=[1, 1],
        )

    def test_near_duplicate_times_resolve_like_isclose(self):
        times = [1.0, 1.0 + 1e-10, 2.0]
        surface = self._surface(times)
        for time in times + [1.0 - 1e-10, 2.0 + 1e-9]:
            assert surface._time_index(time) == isclose_scan(times, time)
        # Both near-duplicates land on the first of them, as the scan does.
        assert surface._time_index(1.0 + 1e-10) == 0
        assert np.array_equal(surface.profile(1.0 + 1e-10), surface.values[0])

    def test_agrees_with_isclose_on_every_stored_and_nearby_time(self):
        times = np.concatenate([np.arange(1.0, 51.0), [1e5, 1e5 + 0.5]])
        surface = self._surface(times)
        for time in np.concatenate([times, times + 1e-9, times + 0.25]):
            try:
                expected = isclose_scan(times, time)
            except KeyError:
                with pytest.raises(KeyError):
                    surface._time_index(time)
            else:
                assert surface._time_index(time) == expected

    def test_follows_reassigned_times(self):
        surface = self._surface([1.0, 2.0, 3.0])
        assert surface._time_index(3.0) == 2
        surface.times = np.array([3.0, 4.0, 5.0])
        assert surface._time_index(3.0) == 0
        assert surface._time_index(5.0) == 2
        with pytest.raises(KeyError):
            surface._time_index(1.0)

    def test_missing_times_raise_key_error(self):
        surface = self._surface([1.0, 2.0])
        for time in (3.0, 1.5, float("nan")):
            with pytest.raises(KeyError):
                surface._time_index(time)
        with pytest.raises(KeyError):
            surface.profile(7.0)

    def test_integer_and_numpy_scalar_queries(self):
        surface = self._surface([1.0, 2.0])
        assert surface._time_index(2) == 1
        assert surface._time_index(np.float64(2.0)) == 1
        assert surface._time_index(np.array(2.0)) == 1


# --------------------------------------------------------------------------- #
# Property-based tests on randomly generated cascades.
# --------------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(
    vote_data=st.lists(
        st.tuples(st.floats(0.0, 50.0), st.integers(1, 30)),
        min_size=1,
        max_size=80,
    )
)
def test_density_surface_invariants_on_random_cascades(vote_data):
    """For any cascade: densities lie in [0, 100], are monotone in time, and
    the final density equals (distinct voters in group) / (group size)."""
    votes = [Vote(0.0, 0)] + [Vote(t, u) for t, u in vote_data]
    story = Story(story_id=0, initiator=0, votes=votes)
    distances = {user: 1 + (user % 3) for user in range(1, 31)}
    surface = compute_density_surface(
        story, distances, [1, 2, 3], times=np.arange(1.0, 51.0)
    )
    assert np.all(surface.values >= 0.0)
    assert np.all(surface.values <= 100.0 + 1e-9)
    assert surface.is_monotone_in_time()

    final = surface.values[-1]
    for column, group in enumerate([1, 2, 3]):
        group_users = {u for u, d in distances.items() if d == group}
        voters_in_group = {u for _, u in vote_data if u in group_users}
        expected = 100.0 * len(voters_in_group) / len(group_users)
        assert final[column] == pytest.approx(expected)
