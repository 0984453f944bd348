//! IPFIX (RFC 7011) subset reader.
//!
//! IPFIX is the IETF standardization of NetFlow v9: a 16-byte message
//! header followed by *sets*. Set id 2 carries templates (same layout as
//! v9 template records), set id 3 carries options templates, and set ids
//! ≥ 256 carry data records. Enterprise-specific information elements
//! (high bit of the field type set) are skipped over: they take space in
//! the record but never stand in for the IANA element of the same number.
//!
//! The reader shares the per-source [`TemplateRegistry`] machinery and
//! the compiled-layout decoder with v9, so both yield identical flows.

use flowdns_types::{FlowDnsError, FlowRecord, SimTime};

use crate::decode::{be16, be32, decode_sets, err, Dialect};
use crate::extract::ExtractorConfig;
use crate::template::{Template, TemplateRegistry};

/// Size of the IPFIX message header in bytes.
pub const IPFIX_HEADER_LEN: usize = 16;
/// Set id carrying template records.
pub const TEMPLATE_SET_ID: u16 = 2;
/// Set id carrying options-template records.
pub const OPTIONS_TEMPLATE_SET_ID: u16 = 3;

const IPFIX: Dialect = Dialect {
    template_set: TEMPLATE_SET_ID,
    options_set: OPTIONS_TEMPLATE_SET_ID,
    enterprise_numbers: true,
    strict_padding: false,
};

/// Decode one IPFIX message straight into `out`, updating `templates`.
/// Returns the number of data sets dropped for an unknown template.
pub(crate) fn decode(
    templates: &mut TemplateRegistry,
    config: &ExtractorConfig,
    bytes: &[u8],
    out: &mut Vec<FlowRecord>,
) -> Result<u64, FlowDnsError> {
    if bytes.len() < IPFIX_HEADER_LEN {
        return Err(err("message shorter than IPFIX header"));
    }
    let version = be16(bytes, 0);
    if version != 10 {
        return Err(err(format!("not an IPFIX message (version {version})")));
    }
    let length = be16(bytes, 2) as usize;
    if length != bytes.len() {
        return Err(err(format!(
            "IPFIX length field {length} does not match buffer length {}",
            bytes.len()
        )));
    }
    let ts = SimTime::from_secs(be32(bytes, 4) as u64);
    let domain = be32(bytes, 12);
    let sets = &bytes[IPFIX_HEADER_LEN..];
    decode_sets(&IPFIX, templates, domain, ts, config, sets, out).map(|d| d.unknown_sets)
}

/// Builder for IPFIX messages (used by tests and the synthetic exporter).
#[derive(Debug)]
pub struct IpfixMessageBuilder {
    observation_domain: u32,
    sequence: u32,
    export_time: u32,
    sets: Vec<u8>,
}

impl IpfixMessageBuilder {
    /// Start a message.
    pub fn new(observation_domain: u32, sequence: u32, export_time: u32) -> Self {
        IpfixMessageBuilder {
            observation_domain,
            sequence,
            export_time,
            sets: Vec::new(),
        }
    }

    /// Append a template set.
    pub fn add_templates(&mut self, templates: &[Template]) {
        let mut body = Vec::new();
        for t in templates {
            body.extend_from_slice(&t.id.to_be_bytes());
            body.extend_from_slice(&(t.fields.len() as u16).to_be_bytes());
            for f in &t.fields {
                body.extend_from_slice(&f.ftype.to_u16().to_be_bytes());
                body.extend_from_slice(&f.length.to_be_bytes());
            }
        }
        self.push_set(TEMPLATE_SET_ID, &body);
    }

    /// Append a data set of pre-encoded records following `template`.
    pub fn add_data(
        &mut self,
        template: &Template,
        records: &[Vec<u8>],
    ) -> Result<(), FlowDnsError> {
        let rec_len = template.record_len();
        let mut body = Vec::with_capacity(records.len() * rec_len);
        for r in records {
            if r.len() != rec_len {
                return Err(err("record length does not match template"));
            }
            body.extend_from_slice(r);
        }
        self.push_set(template.id, &body);
        Ok(())
    }

    fn push_set(&mut self, id: u16, body: &[u8]) {
        self.sets.extend_from_slice(&id.to_be_bytes());
        self.sets
            .extend_from_slice(&((body.len() + 4) as u16).to_be_bytes());
        self.sets.extend_from_slice(body);
    }

    /// Finish the message.
    pub fn build(self) -> Vec<u8> {
        let total = IPFIX_HEADER_LEN + self.sets.len();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&10u16.to_be_bytes());
        out.extend_from_slice(&(total as u16).to_be_bytes());
        out.extend_from_slice(&self.export_time.to_be_bytes());
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&self.observation_domain.to_be_bytes());
        out.extend_from_slice(&self.sets);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::v9::encode_standard_ipv4_record;
    use std::net::Ipv4Addr;

    fn template() -> Template {
        Template::standard_ipv4(400)
    }

    fn message(with_template: bool) -> Vec<u8> {
        let mut b = IpfixMessageBuilder::new(55, 3, 1_700_000_000);
        if with_template {
            b.add_templates(&[template()]);
        }
        let rec = encode_standard_ipv4_record(
            Ipv4Addr::new(203, 0, 113, 77),
            Ipv4Addr::new(10, 3, 0, 1),
            443,
            50123,
            6,
            2_000_000,
            1500,
            100,
            200,
        );
        b.add_data(&template(), &[rec]).unwrap();
        b.build()
    }

    /// Decode `bytes` with `templates`: the flows and unknown-set count.
    fn run(
        templates: &mut TemplateRegistry,
        bytes: &[u8],
    ) -> Result<(Vec<FlowRecord>, u64), FlowDnsError> {
        let mut out = Vec::new();
        let unknown = decode(templates, &ExtractorConfig::default(), bytes, &mut out)?;
        Ok((out, unknown))
    }

    #[test]
    fn template_then_data_round_trip() {
        let mut templates = TemplateRegistry::new();
        let (flows, _) = run(&mut templates, &message(true)).unwrap();
        assert!(templates.get(55, 400).is_some());
        assert_eq!(flows.len(), 1);
        assert_eq!(
            flows[0].key.src_ip,
            std::net::IpAddr::from([203, 0, 113, 77])
        );
        assert_eq!(flows[0].bytes, 2_000_000);
        assert_eq!(flows[0].ts, SimTime::from_secs(1_700_000_000));
    }

    #[test]
    fn data_before_template_counts_unknown() {
        let mut templates = TemplateRegistry::new();
        let (flows, unknown) = run(&mut templates, &message(false)).unwrap();
        assert_eq!((flows.len(), unknown), (0, 1));
        let (flows, _) = run(&mut templates, &message(true)).unwrap();
        assert_eq!(flows.len(), 1);
    }

    #[test]
    fn length_field_is_validated() {
        let mut bytes = message(true);
        bytes[2] = 0;
        bytes[3] = 20;
        assert!(run(&mut TemplateRegistry::new(), &bytes).is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = message(true);
        bytes[1] = 9;
        assert!(run(&mut TemplateRegistry::new(), &bytes).is_err());
    }

    #[test]
    fn truncated_message_is_rejected() {
        let bytes = message(true);
        assert!(run(&mut TemplateRegistry::new(), &bytes[..IPFIX_HEADER_LEN - 2]).is_err());
    }
}
