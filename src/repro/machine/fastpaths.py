"""The fast-path ladder ``KernelConfig.fastpaths`` picks a rung of.

Lowest first; each rung adds one path over the rung below it and is
byte-identical to it, so every rung is the oracle of the one above.
"""

FASTPATHS = ("precise", "trapfast", "blockexec", "storm")

#: Rung indices the CPU compares its configured rung against.
PRECISE, TRAPFAST, BLOCKEXEC, STORM = range(len(FASTPATHS))
