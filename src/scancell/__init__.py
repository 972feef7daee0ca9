"""scancell: simulator and validation toolkit for a robot-assisted
photograph digitization cell.

Subpackages and modules:

- photogrammetry: scale, resolution and pixel-pitch arithmetic
- sortie: sortie identifier grammars and canonical formatting
- preservation: remediation planning and box-condition sampling
- cell: discrete-event simulation of the scanning cell and closed-form
  throughput figures
- economics: fixed/variable cost model, break-even and cost-halving points
- qc: synthetic calibration targets and calibration-strip analysis
- codec: the JSON codec shared by every record the CLI reads or writes
- cli: command-line entry point
"""

__version__ = "0.1.0"
