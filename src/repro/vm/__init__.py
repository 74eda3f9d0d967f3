"""Virtual-memory substrate: VMAs, page tables, processes and regions."""

from repro.vm.page_table import PageTable
from repro.vm.process import Process
from repro.vm.vma import VMA, VMAList

__all__ = ["VMA", "VMAList", "PageTable", "Process"]
