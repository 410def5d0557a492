"""Test-only fault injection.

These helpers deliberately corrupt live simulation state so tests can prove
the :class:`~repro.validate.invariants.InvariantChecker` catches real bugs
(rather than vacuously passing).  Nothing in the production paths imports
this module.
"""

from __future__ import annotations

from ..sim.resources import Request, Resource

__all__ = ["inject_double_grant", "inject_phantom_release", "inject_lost_message"]


def inject_double_grant(resource: Resource, amount: int = 1) -> Request:
    """Grant ``amount`` units of ``resource`` *bypassing* the capacity
    check — models a broken arbiter that lets two exclusive intervals
    overlap.  Returns the forged request (releasable normally)."""
    req = Request(resource, priority=0.0, amount=amount)
    resource.in_use += amount
    resource.users.append(req)
    h = resource.engine.hooks
    if h is not None:
        for fn in h.grant:
            fn(resource, amount)
    req.succeed(req)
    return req


def inject_phantom_release(resource: Resource, amount: int = 1) -> None:
    """Report a release that never had a matching grant."""
    resource.in_use -= amount
    h = resource.engine.hooks
    if h is not None:
        for fn in h.release:
            fn(resource, amount)


def inject_lost_message(network, src_pe: int, dst_pe: int, size: int = 64) -> None:
    """Count a message as sent without ever delivering it (a dropped wire
    transfer)."""
    from ..hardware.network import Message

    msg = Message(src_pe, dst_pe, size)
    network.messages_sent += 1
    network.bytes_sent += size
    h = network.engine.hooks
    if h is not None:
        for fn in h.net_send:
            fn(network, msg)
