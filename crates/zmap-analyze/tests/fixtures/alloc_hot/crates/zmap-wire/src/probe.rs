//! Fixture: alloc-in-hot-path on the RX side — `ProbeModule::parse_response`
//! is a root, and the walk follows the family seam: a call through the
//! type parameter (`L::icmp_response`) lands in the family's impl. A copy
//! in the generic body's TCP arm fires, and so does one in the ICMP arm
//! behind the seam; the borrowing UDP arm (the current form) and the cold
//! `parse_banner`, which owns its banner by contract, stay quiet.

pub trait L3 {
    fn icmp_response(b: &ProbeBuilder<Self>, frame: &[u8]) -> Option<usize>;
}

impl L3 for V4 {
    fn icmp_response(_b: &ProbeBuilder<V4>, frame: &[u8]) -> Option<usize> {
        let quote = frame.get(8..)?.to_vec();
        Some(quote.len())
    }
}

impl ProbeBuilder<V4> {
    pub fn parse_response(&self, frame: &[u8]) -> Option<usize> {
        self.classify(frame)
    }
}

impl<L: L3> ProbeBuilder<L> {
    pub fn classify(&self, frame: &[u8]) -> Option<usize> {
        match frame.first()? {
            6 => {
                let tcp = TcpView::parse(frame)?;
                let copy = tcp.payload().to_vec();
                Some(copy.len())
            }
            17 => {
                let udp = UdpView::parse(frame)?;
                Some(udp.payload().len())
            }
            _ => L::icmp_response(self, frame),
        }
    }

    pub fn parse_banner(&self, frame: &[u8]) -> Option<Vec<u8>> {
        let tcp = TcpView::parse(frame)?;
        Some(tcp.payload().to_vec())
    }
}
