"""Tests for repro.geo: coordinates, Haversine, delays."""

from __future__ import annotations

import math

import pytest

from repro.geo import (
    EARTH_RADIUS_M,
    GeoPoint,
    haversine_m,
    propagation_delay_ms,
)

NY = GeoPoint(40.7128, -74.0060)
LA = GeoPoint(34.0522, -118.2437)
LONDON = GeoPoint(51.5074, -0.1278)


class TestGeoPoint:
    def test_valid_point_roundtrips(self):
        p = GeoPoint(12.5, -45.25)
        assert p.as_tuple() == (12.5, -45.25)

    def test_radians_conversion(self):
        p = GeoPoint(90.0, 180.0)
        assert p.latitude_rad == pytest.approx(math.pi / 2)
        assert p.longitude_rad == pytest.approx(math.pi)

    @pytest.mark.parametrize("lat", [-90.0001, 90.0001, 1000.0])
    def test_latitude_out_of_range(self, lat):
        with pytest.raises(ValueError, match="latitude"):
            GeoPoint(lat, 0.0)

    @pytest.mark.parametrize("lon", [-180.1, 180.1, 720.0])
    def test_longitude_out_of_range(self, lon):
        with pytest.raises(ValueError, match="longitude"):
            GeoPoint(0.0, lon)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            GeoPoint(float("nan"), 0.0)

    def test_boundary_values_allowed(self):
        GeoPoint(90.0, 180.0)
        GeoPoint(-90.0, -180.0)

    def test_frozen(self):
        p = GeoPoint(1.0, 2.0)
        with pytest.raises(AttributeError):
            p.latitude = 3.0  # type: ignore[misc]


class TestHaversine:
    def test_zero_distance_to_self(self):
        assert haversine_m(NY, NY) == 0.0

    def test_symmetry(self):
        assert haversine_m(NY, LA) == pytest.approx(haversine_m(LA, NY))

    def test_ny_la_known_distance(self):
        # Great-circle NY-LA is about 3,936 km.
        assert haversine_m(NY, LA) == pytest.approx(3.936e6, rel=0.01)

    def test_ny_london_known_distance(self):
        # About 5,570 km.
        assert haversine_m(NY, LONDON) == pytest.approx(5.570e6, rel=0.01)

    def test_antipodal_distance_is_half_circumference(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 180.0)
        assert haversine_m(a, b) == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-9)

    def test_triangle_inequality(self):
        assert haversine_m(NY, LA) <= haversine_m(NY, LONDON) + haversine_m(LONDON, LA)


class TestPropagationDelay:
    def test_delay_scales_with_distance(self):
        d = haversine_m(NY, LA)
        assert propagation_delay_ms(NY, LA) == pytest.approx(d / 2e8 * 1000)

    def test_custom_speed(self):
        faster = propagation_delay_ms(NY, LA, speed_m_per_s=3e8)
        slower = propagation_delay_ms(NY, LA, speed_m_per_s=2e8)
        assert faster < slower

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(ValueError, match="speed"):
            propagation_delay_ms(NY, LA, speed_m_per_s=0.0)

    def test_ny_la_delay_magnitude(self):
        # ~3936 km at 2e8 m/s is ~19.7 ms one-way.
        assert propagation_delay_ms(NY, LA) == pytest.approx(19.7, rel=0.02)
