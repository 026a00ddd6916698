"""The route helpers of `support` fail on routes that break their declarations."""

import pytest
from support import assert_routes_share, assert_routes_stand_alone

from hookforge import partitions
from hookforge.partitions import Partition, f_lambda, hooks

LAM = Partition((2, 1))
ROUTES = [(lambda: hooks(LAM), "partitions.hooks"), (lambda: f_lambda(LAM), "partitions.f_lambda")]


def test_routes_that_share_more_or_less_than_declared_fail():
    # f_lambda reads hooks, and both read the conjugate
    assert_routes_share(ROUTES, {"partitions._conjugate_parts", "partitions.hooks"})
    with pytest.raises(AssertionError, match=r"both enter \['partitions.hooks'\]"):
        assert_routes_share(ROUTES, {"partitions._conjugate_parts"})
    with pytest.raises(AssertionError, match=r"no two .* \['partitions.hook_length'\]"):
        assert_routes_share(ROUTES, {"partitions.", "partitions.hook_length"})
    with pytest.raises(AssertionError, match="did not enter partitions.hook_length"):
        assert_routes_share([(ROUTES[0][0], "partitions.hook_length")])


def test_a_route_that_calls_a_poisoned_name_fails(monkeypatch):
    route = ROUTES[1][0]
    assert assert_routes_stand_alone(monkeypatch, [(route, [(partitions, "hook_length")])]) == [2]
    with pytest.raises(pytest.fail.Exception, match="reached hookforge.partitions.hooks"):
        assert_routes_stand_alone(monkeypatch, [(route, [(partitions, "hooks")])])
    assert partitions.hooks is hooks
