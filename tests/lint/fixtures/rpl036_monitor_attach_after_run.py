"""Fixture: monitors attached after the simulation already ran."""


def main(engine, tracer, checker):
    engine.run()
    tracer.attach(engine)  # EXPECT: RPL036
    return checker


def watch_late(runtime, checker):
    runtime.run()
    checker.watch_runtime(runtime)  # EXPECT: RPL036


def attach_late(engine, registry):
    engine.run()
    engine.attach(registry)  # EXPECT: RPL036
